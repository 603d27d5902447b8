package dp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// topo returns the existing vertices of g in an order that respects its
// precursor edges.
func topo(g *dag.Graph) []int32 {
	parser := dag.NewParser(g)
	order := parser.InitialReady()
	for k := 0; k < len(order); k++ {
		order = append(order, parser.Complete(order[k])...)
	}
	return order
}

// fillBlocked computes the matrix of kernel k the way a slave does, on one
// goroutine: processor-level blocks in DAG order, each reading the blocks
// the pattern's DataDeps name, re-partitioned into sub-blocks that are
// computed in the scratch block of a matrix.View over the shared output
// block and then copied into it.
func fillBlocked[T any](k core.Kernel[T], size, proc, thread dag.Size) *matrix.Store[T] {
	pat := k.Pattern()
	geom := dag.MatrixGeometry(size, proc)
	graph := dag.Build(pat, geom)
	store := matrix.NewStore[T](geom)
	for _, id := range topo(graph) {
		vert := graph.Vertex(id)
		out := matrix.NewBlock[T](geom.Rect(vert.Pos))
		layers := []*matrix.Block[T]{out}
		for _, d := range vert.DataPre {
			layers = append(layers, store.Get(geom.PosOf(d)))
		}
		tgeom := dag.NewGeometry(out.Rect, thread)
		tgraph := dag.Build(pat, tgeom)
		view := matrix.NewView(matrix.NewBlock[T](tgeom.Rect(dag.Pos{})), layers, pat, size, k.Boundary)
		for _, sub := range topo(tgraph) {
			rect := tgeom.Rect(tgraph.Vertex(sub).Pos)
			view.Retarget(rect)
			pat.CellOrder(rect, func(i, j int) {
				view.Set(i, j, k.Cell(view, i, j))
			})
			out.CopyFrom(view.Out())
		}
		store.Put(vert.Pos, out)
	}
	return store
}

// Every kernel, computed block by block through views, is bit-identical to
// its sequential reference on geometries whose blocks divide the matrix
// unevenly, are single cells, or are the whole matrix.
func TestKernelsOverViewsMatchSequential(t *testing.T) {
	const n = 37
	a, b := RandomDNA(n, 11), MutateSeq(RandomDNA(n, 11), DNAAlphabet, 0.3, 12)
	rna := RandomRNA(n, 13)
	parens := []byte("(()(()))()((()()))(())()(()(()))()()")
	check := func(name string, proc, thread dag.Size, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s proc %v thread %v: blocked matrix differs from Sequential()", name, proc, thread)
		}
	}
	for _, g := range [][2]dag.Size{
		{dag.Square(7), dag.Square(3)},
		{{Rows: 5, Cols: 16}, {Rows: 4, Cols: 3}},
		{dag.Square(16), dag.Square(16)},
		{dag.Square(n), dag.Square(5)},
		{dag.Square(4), dag.Square(1)},
	} {
		proc, thread := g[0], g[1]
		run32 := func(name string, k core.Kernel[int32], size dag.Size, want [][]int32) {
			check(name, proc, thread, fillBlocked(k, size, proc, thread).Assemble(), want)
		}
		run64 := func(name string, k core.Kernel[int64], size dag.Size, want [][]int64) {
			check(name, proc, thread, fillBlocked(k, size, proc, thread).Assemble(), want)
		}
		s := NewSWGG(a, b)
		run32("swgg", s, s.Size(), s.Sequential())
		nu := NewNussinov(rna)
		nu.MinLoop = 1
		run32("nussinov", nu, nu.Size(), nu.Sequential())
		e := NewEditDistance(a, b)
		run32("editdist", e, e.Size(), e.Sequential())
		l := NewLCS(a, b)
		run32("lcs", l, l.Size(), l.Sequential())
		nw := NewNeedlemanWunsch(a, b)
		run32("needleman", nw, nw.Size(), nw.Sequential())
		be := NewBandedEdit(a, b, 6)
		run32("banded", be, be.Size(), be.Sequential())
		ks := NewKnapsack(n, 40, 14)
		run32("knapsack", ks, ks.Size(), ks.Sequential())
		dm := NewDominance43(12, 15)
		run32("dominance", dm, dm.Size(), dm.Sequential())
		mc := NewMatrixChain(n, 2, 30, 16)
		run64("matrixchain", mc, mc.Size(), mc.Sequential())
		bst := NewOptimalBST(n, 50, 17)
		run64("optimalbst", bst, bst.Size(), bst.Sequential())
		cyk := NewCYK(ParenGrammar(), parens)
		check("cyk", proc, thread, fillBlocked[uint64](cyk, cyk.Size(), proc, thread).Assemble(), cyk.Sequential())
		rg := NewCYK(RandomGrammar(12, 40, DNAAlphabet, 18), a)
		check("cyk-random", proc, thread, fillBlocked[uint64](rg, rg.Size(), proc, thread).Assemble(), rg.Sequential())
		gt := NewGotoh(a, b)
		check("gotoh", proc, thread, fillBlocked[GotohCell](gt, gt.Size(), proc, thread).Assemble(), gt.Sequential())
	}
	// Viterbi reads the whole previous row: one-row blocks only.
	vt := NewViterbi(9, 4, 20, 19)
	for _, cols := range []int{1, 4, 9} {
		proc, thread := dag.Size{Rows: 1, Cols: cols}, dag.Size{Rows: 1, Cols: 2}
		check("viterbi", proc, thread, fillBlocked[float64](vt, vt.Size(), proc, thread).Assemble(), vt.Sequential())
	}
}

// benchCell times one whole matrix computed block by block through views
// beside the same recurrence over Sequential()'s array, both as ns/cell:
// the ratio is what the repo benchmark reports as dp.*.view_overhead_x,
// here in under a second.
func benchCell[T any](b *testing.B, k core.Kernel[T], size, proc, thread dag.Size, cells int, sequential func() [][]T) {
	perCell := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
	}
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			fillBlocked(k, size, proc, thread)
		}
		perCell(b)
	})
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			sequential()
		}
		perCell(b)
	})
}

// The three geometries are the repo benchmark's in-process workloads at a
// quarter or less of their cell counts.
func BenchmarkCellSWGG(b *testing.B) {
	const n = 192
	a := RandomDNA(n, 1)
	s := NewSWGG(a, MutateSeq(a, DNAAlphabet, 0.3, 2))
	benchCell(b, s, s.Size(), dag.Square(48), dag.Square(12), n*n, s.Sequential)
}

func BenchmarkCellNussinov(b *testing.B) {
	const n = 256
	nu := NewNussinov(RandomRNA(n, 1))
	benchCell(b, nu, nu.Size(), dag.Square(64), dag.Square(16), n*(n+1)/2, nu.Sequential)
}

func BenchmarkCellEditDistance(b *testing.B) {
	const n = 512
	a := RandomDNA(n, 1)
	e := NewEditDistance(a, MutateSeq(a, DNAAlphabet, 0.15, 2))
	benchCell(b, e, e.Size(), dag.Square(128), dag.Square(32), n*n, e.Sequential)
}

// A walk that meets cells the pattern does not compute hands them over one
// at a time with the value Get answers, and the next run starts behind
// them.
func TestRunWalksVisitHolesAsBoundaryReads(t *testing.T) {
	const n = 6
	pat := dag.Custom{PatternName: "checker", CellExistsFunc: func(i, j int) bool { return (i+j)%3 != 0 }}
	full := matrix.NewBlock[int32](dag.Rect{Rows: n, Cols: n})
	for k := range full.Cells {
		full.Cells[k] = int32(k + 1)
	}
	out := matrix.NewBlock[int32](dag.Rect{Row0: n, Col0: n, Rows: 1, Cols: 1})
	v := matrix.NewView(out, []*matrix.Block[int32]{full}, pat, dag.Square(n+1), func(i, j int) int32 { return -1 })

	var got, want []string
	rowRuns(v, 2, 0, n, func(j int, cells []int32) {
		for t, c := range cells {
			got = append(got, fmt.Sprint(2, j+t, c))
		}
	})
	colRuns(v, 3, 0, n, func(i int, cells []int32, stride int) {
		for x := 0; x < len(cells); x += stride {
			got = append(got, fmt.Sprint(i+x/stride, 3, cells[x]))
		}
	})
	splitRuns(v, 1, 4, 0, n-2, 2, func(k int, row, col []int32, stride int) {
		for t := range row {
			got = append(got, fmt.Sprint(k+t, row[t], col[t*stride]))
		}
	})
	for j := 0; j < n; j++ {
		want = append(want, fmt.Sprint(2, j, v.Get(2, j)))
	}
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprint(i, 3, v.Get(i, 3)))
	}
	for k := 0; k < n-2; k++ {
		want = append(want, fmt.Sprint(k, v.Get(1, k), v.Get(k+2, 4)))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walks visited\n%v\nwant\n%v", got, want)
	}
}
