package dag

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// drainParser executes the whole DAG through the parser in a random order
// among computable vertices and returns the completion order.
func drainParser(t *testing.T, gr *Graph, rng *rand.Rand) []int32 {
	t.Helper()
	p := NewParser(gr)
	ready := append([]int32(nil), p.InitialReady()...)
	var order []int32
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		id := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, id)
		ready = append(ready, p.Complete(id)...)
	}
	if !p.Finished() {
		t.Fatalf("parser not finished: %d vertices remain", p.Remaining())
	}
	return order
}

func TestParserCompletesWholeDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pat := range libraryPatterns() {
		gr := Build(pat, MatrixGeometry(Square(15), Square(4)))
		order := drainParser(t, gr, rng)
		if len(order) != gr.N {
			t.Errorf("%s: completed %d of %d vertices", pat.Name(), len(order), gr.N)
		}
	}
}

// Property: any random drain order is a valid topological order (every
// precursor completes before its successor) — for every library pattern.
func TestParserEmitsTopologicalOrder(t *testing.T) {
	for _, pat := range libraryPatterns() {
		pat := pat
		f := func(seed int64, n, b uint8) bool {
			g := MatrixGeometry(Square(int(n%20)+1), Square(int(b%5)+1))
			gr := Build(pat, g)
			rng := rand.New(rand.NewSource(seed))
			p := NewParser(gr)
			ready := append([]int32(nil), p.InitialReady()...)
			done := make(map[int32]bool)
			var preBuf []Pos
			for len(ready) > 0 {
				k := rng.Intn(len(ready))
				id := ready[k]
				ready[k] = ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				preBuf = pat.Precursors(g, gr.Vertex(id).Pos, preBuf[:0])
				for _, q := range preBuf {
					if !done[g.ID(q)] {
						return false
					}
				}
				done[id] = true
				ready = append(ready, p.Complete(id)...)
			}
			return len(done) == gr.N
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", pat.Name(), err)
		}
	}
}

func TestParserConcurrentWorkers(t *testing.T) {
	gr := Build(Wavefront{}, MatrixGeometry(Square(40), Square(2))) // 400 vertices
	p := NewParser(gr)
	work := make(chan int32, gr.N)
	for _, id := range p.InitialReady() {
		work <- id
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				newly := p.Complete(id)
				mu.Lock()
				completed++
				last := completed == gr.N
				mu.Unlock()
				for _, n := range newly {
					work <- n
				}
				if last {
					close(work)
				}
			}
		}()
	}
	wg.Wait()
	if !p.Finished() {
		t.Fatalf("parser not finished after concurrent drain: %d remain", p.Remaining())
	}
}

func TestParserPanics(t *testing.T) {
	gr := Build(Wavefront{}, MatrixGeometry(Square(4), Square(2)))
	p := NewParser(gr)
	ready := p.InitialReady()
	// Completing a non-computable vertex panics.
	mustPanic(t, func() { p.Complete(gr.Geom.ID(Pos{1, 1})) })
	// Double completion panics.
	p.Complete(ready[0])
	mustPanic(t, func() { p.Complete(ready[0]) })
}

func TestParserRemaining(t *testing.T) {
	gr := Build(Wavefront{}, MatrixGeometry(Square(4), Square(2)))
	p := NewParser(gr)
	if p.Remaining() != 4 {
		t.Fatalf("Remaining = %d, want 4", p.Remaining())
	}
	ready := p.InitialReady()
	if !p.Computable(ready[0]) || p.Computable(ready[0]+1) {
		t.Error("Computable: want the root only")
	}
	p.Complete(ready[0])
	if p.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", p.Remaining())
	}
	if p.Computable(ready[0]) {
		t.Error("Computable(completed) = true")
	}
}

func TestGraphExisting(t *testing.T) {
	gr := Build(Triangular{}, MatrixGeometry(Square(9), Square(3)))
	ids := gr.Existing()
	if len(ids) != gr.N {
		t.Fatalf("Existing returned %d ids, N = %d", len(ids), gr.N)
	}
	for _, id := range ids {
		if !gr.Vertex(id).Exists {
			t.Fatalf("Existing returned nonexistent vertex %d", id)
		}
	}
}

// One graph and one parser, rebuilt and reset in their own storage over the
// blocks of a matrix one after another — as the thread level does for each
// processor-level block — equal a fresh Build over each block and drain it
// whole. The position-dependent patterns are the point: a Triangular
// diagonal block and an off-diagonal one have different sub-DAGs, and so do
// the blocks a Custom pattern's holes cut differently.
func TestRebuildMatchesBuild(t *testing.T) {
	exists := func(i, j int) bool { return j >= i/2 && (i+j)%7 != 3 }
	stairs := Custom{
		PatternName:    "stairs",
		CellExistsFunc: exists,
		PrecursorsFunc: func(g Geometry, p Pos, buf []Pos) []Pos {
			for _, q := range []Pos{{p.Row - 1, p.Col}, {p.Row, p.Col - 1}} {
				buf = appendIf(Custom{CellExistsFunc: exists}, g, q, buf)
			}
			return buf
		},
	}
	rng := rand.New(rand.NewSource(5))
	for _, pat := range []Pattern{Triangular{}, stairs, Wavefront{}, Chain{}} {
		outer := MatrixGeometry(Square(23), Square(9)) // edge blocks are clipped
		var gr Graph
		var p Parser
		for id := range outer.Grid.Cells() {
			block := outer.Rect(outer.PosOf(int32(id)))
			if !pat.BlockExists(outer, outer.PosOf(int32(id))) {
				continue
			}
			g := NewGeometry(block, Square(2+rng.Intn(3)))
			gr.Rebuild(pat, g)
			want := Build(pat, g)
			if gr.N != want.N || len(gr.Verts) != len(want.Verts) || gr.Geom != want.Geom {
				t.Fatalf("%s block %v: rebuilt %d of %d vertices, fresh %d of %d", pat.Name(), block, gr.N, len(gr.Verts), want.N, len(want.Verts))
			}
			for v := range want.Verts {
				a, b := gr.Verts[v], want.Verts[v]
				if a.Pos != b.Pos || a.Exists != b.Exists || a.PreCnt != b.PreCnt ||
					!slices.Equal(a.Post, b.Post) || !slices.Equal(a.DataPre, b.DataPre) {
					t.Fatalf("%s block %v vertex %d: rebuilt %+v, fresh %+v", pat.Name(), block, v, a, b)
				}
			}
			p.Reset(&gr)
			ready := p.AppendInitialReady(nil)
			for len(ready) > 0 {
				v := ready[len(ready)-1]
				ready = p.AppendComplete(ready[:len(ready)-1], v)
			}
			if !p.Finished() {
				t.Fatalf("%s block %v: a reset parser left %d vertices", pat.Name(), block, p.Remaining())
			}
		}
	}
}
