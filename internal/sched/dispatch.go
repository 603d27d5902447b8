// Package sched implements the worker-pool components of EasyHPS (§V.A of
// the paper): the draw orders over a computable sub-task set and the one
// blocking queue the thread level puts around them, the overtime queue used
// for timeout-based fault detection, the sub-task register table that makes
// result acceptance idempotent, and the lease table and runtime profile the
// elastic layers add. The orders are the task-allocation policies compared
// in the evaluation: the dynamic worker pool of EasyHPS, its locality-aware
// variant, and the static block-cyclic wavefront (BCW) assignment.
package sched

import (
	"sort"
	"sync"

	"repro/internal/dag"
)

// Order is a draw order over the computable vertices of one DAG: the policy
// point that distinguishes EasyHPS's dynamic worker pool from the static
// block-cyclic baseline. Every order receives the same stream of computable
// vertices from the DAG parser; they differ in which member may take which,
// and which first. An order takes no lock: engine.Pool holds one per job
// behind its driver's lock, and Queue wraps one for the thread level.
type Order interface {
	// Push queues vertices: newly computable ones, and drawn ones that
	// come back after a timeout, a held backup, a steal or a revocation.
	Push(ids ...int32)
	// Pop removes up to n vertices member may run right now and appends
	// them to dst; none when nothing queued is the member's to take.
	Pop(member, n int, dst []int32) []int32
	// Len is the number of vertices queued, whoever may take them.
	Len() int
}

// LIFO is the EasyHPS policy: a shared computable sub-task stack from which
// any idle worker takes the newest sub-tasks (dynamic worker pool,
// §V.B/§V.C). The zero value is an empty stack.
type LIFO struct{ ids []int32 }

func (s *LIFO) Push(ids ...int32) { s.ids = append(s.ids, ids...) }
func (s *LIFO) Len() int          { return len(s.ids) }

// Pop hands out the top n in stack order.
func (s *LIFO) Pop(_, n int, dst []int32) []int32 {
	cut := len(s.ids) - min(n, len(s.ids))
	dst = append(dst, s.ids[cut:]...)
	s.ids = s.ids[:cut]
	return dst
}

// Affinity is the locality-aware variant of the dynamic pool: any member
// takes a computable sub-task, but instead of the newest the one score
// rates highest for it (core: how much of its data region the slave already
// holds). No member idles while anything is computable, so the paper's
// load-balance behaviour is unchanged; a small scan is traded for traffic
// on patterns with wide data regions.
type Affinity struct {
	LIFO
	score func(member int, v int32) int
}

// NewAffinity builds the order over score, which Pop calls — under whatever
// lock the caller keeps the order behind.
func NewAffinity(score func(member int, v int32) int) *Affinity {
	return &Affinity{score: score}
}

func (a *Affinity) Pop(member, n int, ids []int32) []int32 {
	for n = min(n, len(a.ids)); n > 0; n-- {
		best, bestScore := 0, -1
		for k, v := range a.ids {
			if s := a.score(member, v); s > bestScore {
				best, bestScore = k, s
			}
		}
		last := len(a.ids) - 1
		ids = append(ids, a.ids[best])
		a.ids[best] = a.ids[last]
		a.ids = a.ids[:last]
	}
	return ids
}

// BlockCyclic is the static baseline (BCW): every vertex is pre-assigned to
// a member by a block-cyclic function over its grid column, and each member
// executes exactly its own vertices in wavefront order. A member whose next
// vertex is not yet computable gets nothing even if other computable
// vertices exist — the "computable DAG nodes alongside idle threads"
// situation the paper identifies as BCW's fatal weakness.
type BlockCyclic struct {
	queues [][]int32 // per-owner vertex queues in wavefront order
	owner  []int     // by vertex id
	// ready counts, by vertex id, the computable entries waiting in the
	// owner's queue, n in all; pushed marks the vertices whose static
	// entry is used up, so that another Push is a requeue.
	ready  []int
	pushed []bool
	n      int
}

// Owner returns the block-cyclic owner of grid position p: contiguous runs
// of blockCols columns rotate over the workers. blockCols == ceil(gridCols
// / workers) degenerates to the column-based wavefront (CW) method.
func Owner(p dag.Pos, blockCols, workers int) int {
	return (p.Col / blockCols) % workers
}

// NewBlockCyclic builds the static schedule for the existing vertices of
// gr over members 0..workers-1. Each owner's queue is ordered by DAG depth
// level (longest distance from a root), which is the generic wavefront
// order: for the wavefront pattern it equals the anti-diagonal sweep, for
// the triangular pattern the span sweep.
func NewBlockCyclic(gr *dag.Graph, workers, blockCols int) *BlockCyclic {
	if workers < 1 {
		panic("sched: BlockCyclic needs at least one worker")
	}
	b := &BlockCyclic{
		queues: make([][]int32, workers),
		owner:  make([]int, len(gr.Verts)),
		ready:  make([]int, len(gr.Verts)),
		pushed: make([]bool, len(gr.Verts)),
	}
	level := depthLevels(gr)
	// Stable wavefront order: by level, then row-major id.
	ordered := gr.Existing()
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if level[a] != level[b] {
			return level[a] < level[b]
		}
		return a < b
	})
	for _, id := range ordered {
		w := Owner(gr.Vertex(id).Pos, max(blockCols, 1), workers)
		b.owner[id] = w
		b.queues[w] = append(b.queues[w], id)
	}
	return b
}

// depthLevels computes, for every vertex, its longest-path distance from
// the roots.
func depthLevels(gr *dag.Graph) []int32 {
	level := make([]int32, len(gr.Verts))
	remaining := make([]int32, len(gr.Verts))
	for id := range gr.Verts {
		remaining[id] = gr.Verts[id].PreCnt
	}
	queue := gr.Roots()
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, s := range gr.Vertex(id).Post {
			if l := level[id] + 1; l > level[s] {
				level[s] = l
			}
			remaining[s]--
			if remaining[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return level
}

// Push marks vertices computable where they wait in their owner's queue. A
// vertex pushed before — it timed out — goes to the head of its owner's
// queue: under the static policy it runs nowhere else.
func (b *BlockCyclic) Push(ids ...int32) {
	for _, id := range ids {
		if b.pushed[id] {
			w := b.owner[id]
			b.queues[w] = append([]int32{id}, b.queues[w]...)
		}
		b.pushed[id] = true
		b.ready[id]++
	}
	b.n += len(ids)
}

// Pop drains the longest computable prefix of member's own queue, up to n
// vertices. Only consecutive computable heads may travel together: the
// static wavefront order is the dependency order within one member, so a
// head that is not computable fences everything behind it. A member the
// schedule was not built over — one that joined later — owns nothing.
func (b *BlockCyclic) Pop(member, n int, ids []int32) []int32 {
	if member >= len(b.queues) {
		return ids
	}
	q := b.queues[member]
	for n > 0 && len(q) > 0 && b.ready[q[0]] > 0 {
		b.ready[q[0]]--
		ids = append(ids, q[0])
		q = q[1:]
		n--
		b.n--
	}
	b.queues[member] = q
	return ids
}

func (b *BlockCyclic) Len() int { return b.n }

// Queue is the blocking form of an Order, for the thread level: compute
// goroutines park in Next until the order has a vertex for them or the
// queue is closed. (The processor level's order is in engine.Pool.)
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	order  Order
	one    []int32 // Next's draw, under mu
	closed bool
	// onWait, when non-nil, runs (with mu held) each time a Next or
	// NextBatch call is about to block. Close contends on mu, so anyone
	// signalled from here observes the caller already parked when Close
	// proceeds — the deterministic ordering hook the close-unblocks
	// tests need instead of sleeping.
	onWait func()
}

// NewQueue wraps order, which the queue owns from here on.
func NewQueue(order Order) *Queue {
	q := &Queue{order: order}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// NewDynamic is the dynamic worker pool's queue: any idle worker takes the
// newest computable sub-task.
func NewDynamic() *Queue { return NewQueue(&LIFO{}) }

// Ready injects vertices that have become computable, and drawn ones that
// come back after a timeout so they can be executed again.
func (q *Queue) Ready(ids ...int32) {
	if len(ids) == 0 {
		return
	}
	q.mu.Lock()
	q.order.Push(ids...)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Next blocks until a vertex is available for worker w; ok is false once
// the queue is closed and holds nothing more for w. It allocates nothing.
func (q *Queue) Next(w int) (id int32, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	//lint:ignore blocking-under-lock pop parks in q.cond.Wait, which releases q.mu
	if q.one = q.pop(w, 1, q.one[:0]); len(q.one) == 0 {
		return 0, false
	}
	return q.one[0], true
}

// NextBatch blocks like Next, then drains up to n vertices that are
// computable for worker w *right now* into one batch. It never waits for
// the batch to fill: whatever is ready when the first vertex becomes
// available is taken, so the DAG frontier cannot stall behind a partial
// batch (flush-on-idle). n < 1 is treated as 1. A worker the order has
// nothing left for — a BCW owner whose static queue is drained — stays
// parked until Close: a requeue may still land on it.
func (q *Queue) NextBatch(w, n int) (ids []int32, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids = q.pop(w, max(n, 1), nil) //lint:ignore blocking-under-lock pop parks in q.cond.Wait, which releases q.mu
	return ids, len(ids) > 0
}

// pop appends to dst what the order hands worker w, parking until there is
// something or the queue is closed. Callers hold mu.
func (q *Queue) pop(w, n int, dst []int32) []int32 {
	for {
		if ids := q.order.Pop(w, n, dst); len(ids) > 0 || q.closed {
			return ids
		}
		if q.onWait != nil {
			q.onWait()
		}
		q.cond.Wait()
	}
}

// Reset reopens a closed queue nobody is parked in, over order.
func (q *Queue) Reset(order Order) {
	q.mu.Lock()
	q.order, q.closed = order, false
	q.mu.Unlock()
}

// Close wakes all blocked Next calls; they return ok == false once the
// order has nothing more for them.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
