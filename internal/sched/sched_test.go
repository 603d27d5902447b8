package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
)

// Len returns the number of vertices q currently watches.
func (q *OvertimeQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.live)
}

func TestOvertimeQueueExpiry(t *testing.T) {
	q := NewOvertimeQueue()
	t0 := time.Now()
	q.Add(1, 1, t0.Add(10*time.Millisecond))
	q.Add(2, 1, t0.Add(30*time.Millisecond))
	q.Add(3, 1, t0.Add(50*time.Millisecond))
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}

	exp := q.ExpireBefore(t0.Add(35 * time.Millisecond))
	if len(exp) != 2 || exp[0].ID != 1 || exp[1].ID != 2 {
		t.Fatalf("expired %v", exp)
	}
	if q.Len() != 1 {
		t.Fatalf("Len after expiry = %d", q.Len())
	}
}

func TestOvertimeQueueRemoveBeforeExpiry(t *testing.T) {
	q := NewOvertimeQueue()
	t0 := time.Now()
	q.Add(1, 1, t0)
	q.Remove(1)
	if exp := q.ExpireBefore(t0.Add(time.Second)); len(exp) != 0 {
		t.Fatalf("removed entry expired: %v", exp)
	}
}

func TestOvertimeQueueSupersededAttempt(t *testing.T) {
	q := NewOvertimeQueue()
	t0 := time.Now()
	q.Add(7, 1, t0.Add(10*time.Millisecond))
	q.Add(7, 2, t0.Add(500*time.Millisecond)) // redistribution supersedes
	exp := q.ExpireBefore(t0.Add(20 * time.Millisecond))
	if len(exp) != 0 {
		t.Fatalf("superseded attempt expired: %v", exp)
	}
	exp = q.ExpireBefore(t0.Add(time.Second))
	if len(exp) != 1 || exp[0].Attempt != 2 {
		t.Fatalf("want attempt 2 to expire, got %v", exp)
	}
}

// The next deadline to fire is the earliest live one: nothing expires
// before it, and a removed vertex's earlier deadline never fires.
func TestOvertimeQueueNextDeadline(t *testing.T) {
	q := NewOvertimeQueue()
	t0 := time.Now()
	if exp := q.ExpireBefore(t0.Add(24 * time.Hour)); len(exp) != 0 {
		t.Fatalf("empty queue expired %v", exp)
	}
	q.Add(1, 1, t0.Add(time.Hour))
	q.Add(2, 1, t0.Add(time.Minute))
	if exp := q.ExpireBefore(t0.Add(time.Minute - time.Nanosecond)); len(exp) != 0 {
		t.Fatalf("expired %v before the earliest deadline", exp)
	}
	q.Remove(2)
	if exp := q.ExpireBefore(t0.Add(30 * time.Minute)); len(exp) != 0 {
		t.Fatalf("removed vertex expired: %v", exp)
	}
	if exp := q.ExpireBefore(t0.Add(time.Hour)); len(exp) != 1 || exp[0].ID != 1 {
		t.Fatalf("ExpireBefore(+1h) = %v, want vertex 1", exp)
	}
}

func TestRegisterTableLifecycle(t *testing.T) {
	rt := NewRegisterTable()
	a, ok := rt.Register(5)
	if !ok || a != 1 {
		t.Fatalf("first attempt = %d, ok=%v", a, ok)
	}
	if rt.Outstanding() != 1 {
		t.Fatal("Outstanding != 1")
	}
	if !rt.Accept(5, a) {
		t.Fatal("current attempt rejected")
	}
	if rt.Accept(5, a) {
		t.Fatal("duplicate result accepted")
	}
	if _, ok := rt.Register(5); ok || rt.Outstanding() != 0 {
		t.Fatal("finished sub-task registered again, or still outstanding")
	}
}

func TestRegisterTableRedistribution(t *testing.T) {
	rt := NewRegisterTable()
	a1, _ := rt.Register(9)
	rt.CancelAttempt(9, a1) // timeout
	a2, ok := rt.Register(9)
	if !ok || a2 != 2 {
		t.Fatalf("second attempt = %d, ok=%v", a2, ok)
	}
	if rt.Accept(9, a1) {
		t.Fatal("stale attempt accepted")
	}
	if !rt.Accept(9, a2) {
		t.Fatal("live attempt rejected")
	}
}

func TestRegisterTableUnregisteredRejected(t *testing.T) {
	rt := NewRegisterTable()
	if rt.Accept(1, 1) {
		t.Fatal("unregistered result accepted")
	}
}

func TestRegisterTableRegisterFinishedRefused(t *testing.T) {
	rt := NewRegisterTable()
	a, _ := rt.Register(3)
	rt.Accept(3, a)
	if _, ok := rt.Register(3); ok {
		t.Fatal("register of finished sub-task succeeded")
	}
}

// drainDispatcher runs the full DAG through a queue with the given number
// of workers, returning per-worker executed vertex lists.
func drainDispatcher(t *testing.T, gr *dag.Graph, d *Queue, workers int) [][]int32 {
	t.Helper()
	parser := dag.NewParser(gr)
	d.Ready(parser.InitialReady()...)
	execed := make([][]int32, workers)
	var mu sync.Mutex
	completed := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				id, ok := d.Next(w)
				if !ok {
					return
				}
				execed[w] = append(execed[w], id)
				newly := parser.Complete(id)
				mu.Lock()
				completed++
				isLast := completed == gr.N
				mu.Unlock()
				d.Ready(newly...)
				if isLast {
					d.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	if !parser.Finished() {
		t.Fatalf("DAG not drained: %d vertices remain", parser.Remaining())
	}
	return execed
}

func TestDynamicDrainsDAG(t *testing.T) {
	gr := dag.Build(dag.Wavefront{}, dag.MatrixGeometry(dag.Square(24), dag.Square(2)))
	d := NewDynamic()
	execed := drainDispatcher(t, gr, d, 4)
	total := 0
	for _, e := range execed {
		total += len(e)
	}
	if total != gr.N {
		t.Fatalf("executed %d of %d vertices", total, gr.N)
	}
}

func TestBlockCyclicDrainsDAG(t *testing.T) {
	for _, pat := range []dag.Pattern{dag.Wavefront{}, dag.RowColumn{}, dag.Triangular{}} {
		gr := dag.Build(pat, dag.MatrixGeometry(dag.Square(24), dag.Square(3)))
		d := NewQueue(NewBlockCyclic(gr, 3, 2))
		execed := drainDispatcher(t, gr, d, 3)
		total := 0
		for w, e := range execed {
			total += len(e)
			// Static ownership: every executed vertex belongs to its worker.
			for _, id := range e {
				if own := Owner(gr.Vertex(id).Pos, 2, 3); own != w {
					t.Errorf("%s: worker %d executed vertex of worker %d", pat.Name(), w, own)
				}
			}
		}
		if total != gr.N {
			t.Fatalf("%s: executed %d of %d vertices", pat.Name(), total, gr.N)
		}
	}
}

func TestBlockCyclicOwner(t *testing.T) {
	// 3 workers, runs of 2 columns: cols 0,1 -> w0; 2,3 -> w1; 4,5 -> w2; 6,7 -> w0.
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 0, 7: 0, 8: 1}
	for col, want := range cases {
		if got := Owner(dag.Pos{Row: 5, Col: col}, 2, 3); got != want {
			t.Errorf("Owner(col=%d) = %d, want %d", col, got, want)
		}
	}
}

func TestBlockCyclicIdleWhileComputable(t *testing.T) {
	// Two workers, wavefront 4x4 grid, column runs of 1:
	// worker 0 owns even columns, worker 1 odd columns. After (0,0)
	// completes, (0,1) is computable but only worker 1 may take it: with
	// worker 1 absent the vertex waits even though worker 0 idles. We
	// assert the dispatcher does NOT give (0,1) to worker 0.
	gr := dag.Build(dag.Wavefront{}, dag.MatrixGeometry(dag.Square(4), dag.Square(1)))
	d := NewQueue(NewBlockCyclic(gr, 2, 1))
	parser := dag.NewParser(gr)
	d.Ready(parser.InitialReady()...)

	id, ok := d.Next(0) // (0,0)
	if !ok || gr.Vertex(id).Pos != (dag.Pos{Row: 0, Col: 0}) {
		t.Fatalf("worker 0 first vertex = %v", gr.Vertex(id).Pos)
	}
	d.Ready(parser.Complete(id)...) // (0,1) and (1,0) computable

	got := make(chan int32, 1)
	go func() {
		id, ok := d.Next(0)
		if ok {
			got <- id
		}
	}()
	select {
	case id := <-got:
		if gr.Vertex(id).Pos.Col%2 != 0 {
			t.Fatalf("worker 0 stole vertex %v owned by worker 1", gr.Vertex(id).Pos)
		}
	case <-time.After(200 * time.Millisecond):
		t.Fatal("worker 0 should immediately receive its own computable vertex (1,0)")
	}
	d.Close()
}

func TestDynamicNeverIdlesWhileComputable(t *testing.T) {
	// In the same situation, the dynamic pool gives worker 0 whatever is
	// computable.
	gr := dag.Build(dag.Wavefront{}, dag.MatrixGeometry(dag.Square(4), dag.Square(1)))
	d := NewDynamic()
	parser := dag.NewParser(gr)
	d.Ready(parser.InitialReady()...)
	id, _ := d.Next(0)
	d.Ready(parser.Complete(id)...)
	// Worker 0 can take both computable vertices back-to-back.
	if _, ok := d.Next(0); !ok {
		t.Fatal("no vertex")
	}
	if _, ok := d.Next(0); !ok {
		t.Fatal("no second vertex")
	}
	if n := d.order.Len(); n != 0 {
		t.Fatalf("%d vertices still queued", n)
	}
	d.Close()
}

func TestDynamicCloseUnblocksWorkers(t *testing.T) {
	d := NewDynamic()
	// The onWait hook fires with d.mu held right before a caller parks;
	// Close must take d.mu to set closed, so once both tokens arrive the
	// workers are provably blocked in Wait when Close broadcasts.
	blocked := make(chan struct{}, 2)
	d.onWait = func() { blocked <- struct{}{} }
	done := make(chan bool, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			_, ok := d.Next(w)
			done <- ok
		}(w)
	}
	for k := 0; k < 2; k++ {
		select {
		case <-blocked:
		case <-time.After(time.Second):
			t.Fatal("worker never blocked in Next")
		}
	}
	d.Close()
	for k := 0; k < 2; k++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("Next returned a vertex after Close")
			}
		case <-time.After(time.Second):
			t.Fatal("worker did not unblock")
		}
	}
}

func TestDynamicRequeue(t *testing.T) {
	d := NewDynamic()
	d.Ready(4)
	id, _ := d.Next(0)
	d.Ready(id)
	id2, ok := d.Next(1)
	if !ok || id2 != 4 {
		t.Fatalf("requeued vertex not redelivered: %d,%v", id2, ok)
	}
	d.Close()
}

// A BCW owner whose static queue is drained is not done: a vertex of its
// that timed out comes back to it. It parks until Close, and draws the
// requeue. (The dispatcher this replaces reported the end to a drained
// worker at once; core's sender then left, and a vertex requeued after
// that had no one to draw it — the run hung until RunTimeout.)
func TestBlockCyclicDrainedOwnerBlocksUntilClose(t *testing.T) {
	gr := dag.Build(dag.Wavefront{}, dag.MatrixGeometry(dag.Square(2), dag.Square(1)))
	d := NewQueue(NewBlockCyclic(gr, 2, 1))
	parser := dag.NewParser(gr)
	d.Ready(parser.InitialReady()...)
	// Worker 1 owns column 1: (0,1), then (1,1). Run the whole DAG.
	var last int32
	for _, w := range []int{0, 1, 0, 1} {
		id, ok := d.Next(w)
		if !ok {
			t.Fatalf("worker %d got no vertex mid-run", w)
		}
		d.Ready(parser.Complete(id)...)
		last = id
	}
	blocked := make(chan struct{}, 2)
	d.onWait = func() { blocked <- struct{}{} }
	type drawn struct {
		id int32
		ok bool
	}
	got := make(chan drawn, 1)
	next := func() {
		id, ok := d.Next(1)
		got <- drawn{id, ok}
	}
	park := func() {
		t.Helper()
		select {
		case <-blocked:
		case g := <-got:
			t.Fatalf("drained owner's Next returned (%d, %v), want it parked", g.id, g.ok)
		case <-time.After(5 * time.Second):
			t.Fatal("drained owner neither parked nor returned")
		}
	}
	go next()
	park()
	d.Ready(last) // (1,1) timed out
	select {
	case g := <-got:
		if !g.ok || g.id != last {
			t.Fatalf("after the requeue the owner drew (%d, %v), want vertex %d", g.id, g.ok, last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the requeued vertex was never drawn")
	}
	go next()
	park()
	d.Close()
	select {
	case g := <-got:
		if g.ok {
			t.Fatalf("Next returned vertex %d after Close", g.id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the drained owner")
	}
}

func TestDepthLevelsWavefront(t *testing.T) {
	gr := dag.Build(dag.Wavefront{}, dag.MatrixGeometry(dag.Square(3), dag.Square(1)))
	level := depthLevels(gr)
	g := gr.Geom
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if got := level[g.ID(dag.Pos{Row: r, Col: c})]; got != int32(r+c) {
				t.Errorf("level(%d,%d) = %d, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestColumnWavefrontBlockCols(t *testing.T) {
	// blockCols == ceil(gridCols / workers) is the column-based wavefront
	// (CW): 10 grid columns over 3 workers in runs of 4 columns -> workers
	// own cols 0-3, 4-7, 8-9; every worker owns at most one contiguous run.
	bc := (10 + 3 - 1) / 3
	owners := make(map[int]map[int]bool)
	for c := 0; c < 10; c++ {
		w := Owner(dag.Pos{Col: c}, bc, 3)
		if owners[w] == nil {
			owners[w] = make(map[int]bool)
		}
		owners[w][c] = true
	}
	for w, cols := range owners {
		min, max := 99, -1
		for c := range cols {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min+1 != len(cols) {
			t.Fatalf("worker %d owns non-contiguous columns %v", w, cols)
		}
	}
}

// A single-attempt watch allocates nothing once the queue has grown to its
// working size: Add, Remove, and the ExpireBefore that discards the stale
// entries they leave, as the thread level's overtime queue does per
// sub-block and the engine's per lease.
func TestOvertimeQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := NewOvertimeQueue()
	now := time.Unix(1000, 0)
	cycle := func() {
		for id := int32(0); id < 16; id++ {
			q.Add(id, id+1, now)
		}
		for id := int32(0); id < 16; id++ {
			q.Remove(id)
		}
		q.Add(99, 1, now.Add(time.Hour)) // watched, not due
		if exp := q.ExpireBefore(now); len(exp) != 0 {
			t.Fatalf("expired %v", exp)
		}
		q.Remove(99)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady-state watch cycle allocates %.1f times, want 0", allocs)
	}
}

// Next pops one vertex without allocating; NextBatch hands out a batch of
// its own.
func TestQueueNextAllocatesNothing(t *testing.T) {
	q := NewDynamic()
	ids := []int32{3, 1, 2}
	cycle := func() {
		q.Ready(ids...)
		for range ids {
			if _, ok := q.Next(0); !ok {
				t.Fatal("Next found the queue closed")
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Ready and three Nexts allocate %.1f times, want 0", allocs)
	}
}
