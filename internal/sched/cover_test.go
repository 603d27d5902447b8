package sched

import (
	"testing"
	"time"

	"repro/internal/dag"
)

// The wall clock is the production time source; its ticker must deliver
// real ticks and stop cleanly.
func TestWallClockTicker(t *testing.T) {
	before := time.Now()
	now := Wall.Now()
	if now.Before(before.Add(-time.Second)) || now.After(before.Add(time.Minute)) {
		t.Fatalf("Wall.Now() = %v, not near time.Now() = %v", now, before)
	}
	tk := Wall.NewTicker(time.Millisecond)
	select {
	case <-tk.C():
	case <-time.After(5 * time.Second):
		t.Fatal("wall ticker delivered no tick within 5s")
	}
	tk.Stop()
}

func TestFakeClockRejectsNonPositivePeriod(t *testing.T) {
	c := NewFakeClock(time.Unix(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker(0) did not panic")
		}
	}()
	c.NewTicker(0)
}

func TestDynamicNextBatchClampsMax(t *testing.T) {
	d := NewDynamic()
	d.Ready(1, 2)
	ids, ok := d.NextBatch(0, 0) // max < 1 treated as 1
	if !ok || len(ids) != 1 {
		t.Fatalf("NextBatch(0, 0) = %v, %v; want one vertex", ids, ok)
	}
	d.Close()
	// Drain the remaining vertex, then the closed dispatcher must return
	// ok == false.
	if ids, ok := d.NextBatch(0, 4); !ok || len(ids) != 1 {
		t.Fatalf("NextBatch after Close with stock = %v, %v; want the leftover vertex", ids, ok)
	}
	if ids, ok := d.NextBatch(0, 4); ok || ids != nil {
		t.Fatalf("NextBatch on drained closed dispatcher = %v, %v; want nil, false", ids, ok)
	}
}

// The column-based wavefront at its edges: a short last run (7 columns
// over 3 workers in runs of ceil(7/3) = 3), and more workers than columns
// (runs of 1, column c on worker c).
func TestColumnWavefrontBlockColsEdges(t *testing.T) {
	for c, want := range []int{0, 0, 0, 1, 1, 1, 2} {
		if got := Owner(dag.Pos{Col: c}, 3, 3); got != want {
			t.Fatalf("7 columns over 3 workers: column %d on worker %d, want %d", c, got, want)
		}
	}
	for c := 0; c < 2; c++ {
		if got := Owner(dag.Pos{Col: c}, 1, 8); got != c {
			t.Fatalf("2 columns over 8 workers: column %d on worker %d, want %d", c, got, c)
		}
	}
}

func TestNewBlockCyclicEdges(t *testing.T) {
	gr := dag.Build(dag.Wavefront{}, dag.MatrixGeometry(dag.Square(4), dag.Square(1)))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewBlockCyclic with 0 workers did not panic")
			}
		}()
		NewBlockCyclic(gr, 0, 1)
	}()
	// blockCols < 1 is clamped to 1: columns then rotate one by one over
	// the workers, so column c belongs to worker c % 2.
	b := NewBlockCyclic(gr, 2, 0)
	for _, id := range gr.Existing() {
		p := gr.Vertex(id).Pos
		want := p.Col % 2
		found := false
		for _, q := range b.queues[want] {
			if q == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d at %v not in queue of worker %d", id, p, want)
		}
	}
}

func TestBlockCyclicRequeueAndReadyCount(t *testing.T) {
	geom := dag.MatrixGeometry(dag.Square(4), dag.Square(1))
	gr := dag.Build(dag.Wavefront{}, geom)
	b := NewBlockCyclic(gr, 2, 2)
	d := NewQueue(b)
	if got := b.Len(); got != 0 {
		t.Fatalf("fresh queue holds %d, want 0", got)
	}
	root := geom.ID(dag.Pos{Row: 0, Col: 0})
	d.Ready(root)
	if got := b.Len(); got != 1 {
		t.Fatalf("queue holds %d, want 1", got)
	}
	id, ok := d.Next(0)
	if !ok || id != root {
		t.Fatalf("Next(0) = %d, %v; want root %d", id, ok, root)
	}
	if got := b.Len(); got != 0 {
		t.Fatalf("queue holds %d after Next, want 0", got)
	}
	// A timed-out vertex goes back ready at the head of its owner's queue,
	// in front of what is fenced there, and to no one else.
	d.Ready(root)
	if got := b.Len(); got != 1 {
		t.Fatalf("queue holds %d after the requeue, want 1", got)
	}
	if ids := b.Pop(1, 4, nil); len(ids) != 0 {
		t.Fatalf("worker 1 drew %v, worker 0's requeued vertex", ids)
	}
	if id, ok := d.Next(0); !ok || id != root {
		t.Fatalf("Next after the requeue = %d, %v; want root %d at queue head", id, ok, root)
	}
}

func TestBlockCyclicNextBatchFencesOnNonReadyHead(t *testing.T) {
	geom := dag.MatrixGeometry(dag.Square(4), dag.Square(1))
	gr := dag.Build(dag.Wavefront{}, geom)
	// One worker owns everything; wavefront order puts (0,0) first, then
	// (0,1) and (1,0) in id order.
	b := NewBlockCyclic(gr, 1, 4)
	v00 := geom.ID(dag.Pos{Row: 0, Col: 0})
	v01 := geom.ID(dag.Pos{Row: 0, Col: 1})
	v10 := geom.ID(dag.Pos{Row: 1, Col: 0})
	// Mark the head and its level-1 successors ready, but leave the second
	// level-1 vertex out: the batch must stop at the fence even though a
	// later queue entry is ready.
	q := NewQueue(b)
	q.Ready(v00, v01)
	ids, ok := q.NextBatch(0, 8)
	if !ok || len(ids) != 2 || ids[0] != v00 || ids[1] != v01 {
		t.Fatalf("NextBatch = %v, %v; want ready prefix [%d %d]", ids, ok, v00, v01)
	}
	q.Ready(v10)
	if ids, ok := q.NextBatch(0, 8); !ok || len(ids) != 1 || ids[0] != v10 {
		t.Fatalf("NextBatch after fence lifted = %v, %v; want [%d]", ids, ok, v10)
	}
	q.Close()
	if ids, ok := q.NextBatch(0, 8); ok || ids != nil {
		t.Fatalf("NextBatch on closed dispatcher = %v, %v; want nil, false", ids, ok)
	}
	if id, ok := q.Next(0); ok {
		t.Fatalf("Next on closed dispatcher = %d, %v; want false", id, ok)
	}
}

func TestLeaseTableLookupsAndLoads(t *testing.T) {
	lt := NewLeaseTable()
	now := time.Unix(0, 0)
	if ls := lt.Release(7); ls != nil {
		t.Fatalf("Release on empty table = %v, want nil", ls)
	}
	if _, ok := lt.ReleaseAttempt(7, 1); ok {
		t.Fatal("ReleaseAttempt on empty table reported a lease")
	}
	if hs := lt.Holders(7); hs != nil {
		t.Fatalf("Holders on empty table = %v, want nil", hs)
	}
	lt.Grant(7, 1, 1, now)
	lt.Add(7, 2, 2, now) // speculative backup on another worker
	lt.Grant(8, 1, 3, now)
	if hs := lt.Holders(7); len(hs) != 2 || hs[1].Attempt != 2 || hs[1].Worker != 2 {
		t.Fatalf("Holders(7) = %+v; want the original and the backup lease on worker 2", hs)
	}
	if got := lt.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	loads := lt.Loads()
	if loads[1] != 2 || loads[2] != 1 || len(loads) != 2 {
		t.Fatalf("Loads = %v, want worker 1 -> 2, worker 2 -> 1", loads)
	}
	// Dropping the backup leaves the original watched and the empty-worker
	// index entry pruned.
	if l, ok := lt.ReleaseAttempt(7, 2); !ok || l.Attempt != 2 {
		t.Fatalf("ReleaseAttempt(7, 2) = %+v, %v", l, ok)
	}
	if loads := lt.Loads(); len(loads) != 1 || loads[1] != 2 {
		t.Fatalf("Loads after backup release = %v, want only worker 1 -> 2", loads)
	}
	// Releasing the last attempt on a vertex deletes the vertex entry.
	if l, ok := lt.ReleaseAttempt(7, 1); !ok || l.Worker != 1 {
		t.Fatalf("ReleaseAttempt(7, 1) = %+v, %v", l, ok)
	}
	if hs := lt.Holders(7); hs != nil {
		t.Fatalf("Holders(7) after full release = %v, want nil", hs)
	}
	if got := lt.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

// A worker holding two attempts on the same vertex (it re-drew its own
// timed-out vertex) keeps its worker-index entry until the last one goes.
func TestLeaseTableUnindexKeepsSharedWorkerEntry(t *testing.T) {
	lt := NewLeaseTable()
	now := time.Unix(0, 0)
	lt.Add(5, 1, 1, now)
	lt.Add(5, 1, 2, now)
	if _, ok := lt.ReleaseAttempt(5, 1); !ok {
		t.Fatal("ReleaseAttempt(5, 1) missed")
	}
	if got := lt.Load(1); got != 1 {
		t.Fatalf("Load(1) = %d, want 1 (second attempt still live)", got)
	}
	if _, ok := lt.ReleaseAttempt(5, 2); !ok {
		t.Fatal("ReleaseAttempt(5, 2) missed")
	}
	if got := lt.Load(1); got != 0 {
		t.Fatalf("Load(1) = %d, want 0 after both attempts released", got)
	}
}

func TestOvertimeAddConcurrentAndRemoveAttempt(t *testing.T) {
	q := NewOvertimeQueue()
	deadline := time.Unix(100, 0)
	// AddConcurrent on a fresh vertex creates the watch set; on a watched
	// vertex it extends it.
	q.AddConcurrent(3, 1, deadline)
	q.AddConcurrent(3, 2, deadline.Add(time.Second))
	if got := q.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 vertex watched", got)
	}
	// Removing an unwatched attempt or vertex is a no-op.
	q.RemoveAttempt(3, 9)
	q.RemoveAttempt(99, 1)
	q.RemoveAttempt(3, 1)
	if got := q.Len(); got != 1 {
		t.Fatalf("Len after removing one of two attempts = %d, want 1", got)
	}
	exp := q.ExpireBefore(deadline.Add(time.Minute))
	if len(exp) != 1 || exp[0].Attempt != 2 {
		t.Fatalf("ExpireBefore = %v, want only the surviving attempt 2", exp)
	}
	// Removing the last attempt drops the vertex entirely.
	q.AddConcurrent(4, 1, deadline)
	q.RemoveAttempt(4, 1)
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
}

func TestRuntimeProfileEdges(t *testing.T) {
	p := NewRuntimeProfile(0)
	if got := len(p.buf); got != DefaultProfileWindow {
		t.Fatalf("default window = %d, want %d", got, DefaultProfileWindow)
	}
	if _, ok := p.Quantile(0.5); ok {
		t.Fatal("Quantile on empty profile reported a value")
	}
	// minSamples 0 on an empty profile passes the sample gate but finds no
	// quantile.
	if _, ok := p.Threshold(0.95, 2, 0, 0); ok {
		t.Fatal("Threshold on empty profile reported a value")
	}
	p.Observe(-time.Second) // clamped to 0
	p.Observe(10 * time.Millisecond)
	if d, ok := p.Quantile(-1); !ok || d != 0 {
		t.Fatalf("Quantile(-1) = %v, %v; want clamped minimum 0", d, ok)
	}
	if d, ok := p.Quantile(2); !ok || d != 10*time.Millisecond {
		t.Fatalf("Quantile(2) = %v, %v; want clamped maximum", d, ok)
	}
	if _, ok := p.Threshold(0.95, 2, 0, 8); ok {
		t.Fatal("Threshold below minSamples reported a value")
	}
	if d, ok := p.Threshold(1, 2, time.Minute, 2); !ok || d != time.Minute {
		t.Fatalf("Threshold floor = %v, %v; want the 1m floor", d, ok)
	}
	// A small ring wraps: only the window latest observations survive.
	small := NewRuntimeProfile(2)
	small.Observe(time.Second)
	small.Observe(2 * time.Second)
	small.Observe(3 * time.Second)
	if got := small.Samples(); got != 2 {
		t.Fatalf("Samples = %d, want window size 2", got)
	}
	if d, ok := small.Quantile(1); !ok || d != 3*time.Second {
		t.Fatalf("Quantile(1) after wrap = %v, %v; want newest 3s", d, ok)
	}
}
