package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// buildGraph is a test helper returning a built DAG for a named pattern.
func buildGraph(t *testing.T, pattern string, n, block int) *dag.Graph {
	t.Helper()
	pat, ok := dag.Lookup(pattern)
	if !ok {
		t.Fatalf("pattern %q not registered", pattern)
	}
	g := dag.MatrixGeometry(dag.Square(n), dag.Square(block))
	return dag.Build(pat, g)
}

// predecessors builds the reverse adjacency of the graph: for every vertex,
// the ids of its direct topological precursors. The Vertex struct stores
// only successor lists, so the invariant check reconstructs the other
// direction independently.
func predecessors(gr *dag.Graph) map[int32][]int32 {
	pre := make(map[int32][]int32)
	for _, id := range gr.Existing() {
		for _, s := range gr.Vertex(id).Post {
			pre[s] = append(pre[s], id)
		}
	}
	return pre
}

// TestNextBatchOrderingInvariant drives a seeded single-worker run through
// the batch path and asserts the core safety property of batched dispatch:
// at the moment a batch is formed, every vertex in it already has all of
// its DAG predecessors completed and applied. Completions are applied only
// after the whole batch has been drained, so a violation cannot hide
// behind timing — if NextBatch ever handed out a vertex whose predecessor
// was still in flight (e.g. in the same batch), the check fails
// deterministically.
func TestNextBatchOrderingInvariant(t *testing.T) {
	for _, pattern := range []string{dag.NameWavefront, dag.NameTriangular} {
		for _, batch := range []int{1, 2, 3, 7, 64} {
			gr := buildGraph(t, pattern, 24, 4)
			pre := predecessors(gr)
			parser := dag.NewParser(gr)
			d := NewDynamic()
			rng := rand.New(rand.NewSource(int64(42 + batch)))

			// Inject new ready vertices in a seeded random order to
			// simulate results arriving in arbitrary interleavings.
			inject := func(ids []int32) {
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				d.Ready(ids...)
			}
			inject(parser.InitialReady())

			completed := make(map[int32]bool)
			delivered := 0
			for delivered < gr.N {
				ids, ok := d.NextBatch(0, batch)
				if !ok {
					t.Fatalf("%s batch=%d: dispatcher closed with %d/%d delivered", pattern, batch, delivered, gr.N)
				}
				if len(ids) == 0 || len(ids) > batch {
					t.Fatalf("%s batch=%d: NextBatch returned %d vertices", pattern, batch, len(ids))
				}
				// The invariant: every vertex in the batch was computable
				// at formation time — all predecessors completed before
				// the batch was formed, none of them inside this batch.
				for _, id := range ids {
					for _, p := range pre[id] {
						if !completed[p] {
							t.Fatalf("%s batch=%d: vertex %d delivered before predecessor %d completed (batch %v)",
								pattern, batch, id, p, ids)
						}
					}
					if completed[id] {
						t.Fatalf("%s batch=%d: vertex %d delivered twice", pattern, batch, id)
					}
				}
				// Apply completions only after the whole batch is formed.
				for _, id := range ids {
					completed[id] = true
					inject(parser.Complete(id))
					delivered++
				}
			}
			if !parser.Finished() {
				t.Fatalf("%s batch=%d: parser not finished after %d deliveries", pattern, batch, delivered)
			}
		}
	}
}

// TestNextBatchMatchesNextAtOne pins the compatibility contract the core
// runtime relies on: with max == 1 the batch path must produce exactly the
// vertex sequence the per-vertex path produces for the same seeded run.
func TestNextBatchMatchesNextAtOne(t *testing.T) {
	trace := func(useBatch bool) []int32 {
		gr := buildGraph(t, dag.NameWavefront, 16, 4)
		parser := dag.NewParser(gr)
		d := NewDynamic()
		rng := rand.New(rand.NewSource(7))
		inject := func(ids []int32) {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			d.Ready(ids...)
		}
		inject(parser.InitialReady())
		var order []int32
		for len(order) < gr.N {
			var id int32
			if useBatch {
				ids, ok := d.NextBatch(0, 1)
				if !ok || len(ids) != 1 {
					t.Fatalf("NextBatch(0,1) = %v, %v", ids, ok)
				}
				id = ids[0]
			} else {
				var ok bool
				id, ok = d.Next(0)
				if !ok {
					t.Fatal("Next returned !ok mid-run")
				}
			}
			order = append(order, id)
			inject(parser.Complete(id))
		}
		return order
	}

	a, b := trace(false), trace(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dispatch order diverges at %d: Next gave %d, NextBatch(·,1) gave %d", i, a[i], b[i])
		}
	}
}

// TestNextBatchFlushOnIdle checks the no-stall rule: NextBatch takes what
// is ready now and never waits for the batch to fill.
func TestNextBatchFlushOnIdle(t *testing.T) {
	d := NewDynamic()
	d.Ready(1, 2, 3)
	ids, ok := d.NextBatch(0, 100)
	if !ok || len(ids) != 3 {
		t.Fatalf("NextBatch = %v, %v; want all 3 ready vertices without blocking", ids, ok)
	}
	// max < 1 behaves as 1.
	d.Ready(4, 5)
	ids, ok = d.NextBatch(0, 0)
	if !ok || len(ids) != 1 {
		t.Fatalf("NextBatch(0,0) = %v, %v; want exactly one vertex", ids, ok)
	}
	d.Close()
	if ids, ok := d.NextBatch(0, 4); ok && len(ids) != 1 {
		t.Fatalf("NextBatch after close = %v, %v", ids, ok)
	}
}

// TestBlockCyclicNextBatch checks that the static order only batches
// consecutive ready heads of a worker's own queue: a non-ready head fences
// everything behind it, preserving the per-worker wavefront order.
func TestBlockCyclicNextBatch(t *testing.T) {
	gr := buildGraph(t, dag.NameWavefront, 16, 4) // 4x4 grid
	b := NewBlockCyclic(gr, 2, 1)
	parser := dag.NewParser(gr)
	b.Push(parser.InitialReady()...)

	// Worker 0 owns even columns. Only vertex 0 (block 0,0) is a root, so
	// the first batch must be exactly {0} even with a large max.
	ids := b.Pop(0, 8, nil)
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("first batch = %v; want [0]", ids)
	}
	b.Push(parser.Complete(0)...)

	// Completing 0 readies (0,1) for worker 1 and (1,0) for worker 0; the
	// next worker-0 batch holds only (1,0) because (2,0) is fenced.
	ids = b.Pop(0, 8, nil)
	if len(ids) != 1 {
		t.Fatalf("second batch = %v; want one fenced vertex", ids)
	}
	if got := gr.Vertex(ids[0]).Pos; got != (dag.Pos{Row: 1, Col: 0}) {
		t.Fatalf("second batch delivered %v", got)
	}
	// (0,1) is queued and computable, and not worker 0's to take.
	if ids := b.Pop(0, 8, nil); len(ids) != 0 || b.Len() != 1 {
		t.Fatalf("worker 0 drew %v with %d queued; want nothing of worker 1's one vertex", ids, b.Len())
	}
	q := NewQueue(b)
	q.Close()
	if _, ok := q.NextBatch(0, 4); ok {
		t.Fatal("NextBatch after close returned ok with nothing of worker 0's queued")
	}
}

// TestAffinityPopsBestScoreFirst pins the affinity order: each pop is the
// queued vertex the member's score rates highest (the earliest pushed on a
// tie), a batch is successive bests, and another member's scores play no
// part.
func TestAffinityPopsBestScoreFirst(t *testing.T) {
	score := map[int]map[int32]int{0: {10: 1, 11: 3, 12: 3, 13: 0}, 1: {13: 9}}
	a := NewAffinity(func(member int, v int32) int { return score[member][v] })
	a.Push(10, 11, 12, 13)
	if ids := a.Pop(0, 3, nil); len(ids) != 3 || ids[0] != 11 || ids[1] != 12 || ids[2] != 10 {
		t.Fatalf("Pop(0, 3) = %v, want [11 12 10]: best first, ties in push order", ids)
	}
	if ids := a.Pop(1, 8, nil); len(ids) != 1 || ids[0] != 13 || a.Len() != 0 {
		t.Fatalf("Pop(1, 8) = %v with %d left, want the one vertex queued", ids, a.Len())
	}
	if ids := a.Pop(1, 8, nil); len(ids) != 0 {
		t.Fatalf("Pop on an empty order = %v", ids)
	}
}
