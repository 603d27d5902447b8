package dp

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/testseed"
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

// codecFor is the codec a kernel's Problem ships cells of T with: binary
// for the fixed-size numbers, gob for the rest.
func codecFor[T any]() matrix.Codec[T] {
	for _, c := range []any{matrix.BinaryCodec[int32]{}, matrix.BinaryCodec[int64]{}, matrix.BinaryCodec[uint64]{}, matrix.BinaryCodec[float64]{}} {
		if c, ok := c.(matrix.Codec[T]); ok {
			return c
		}
	}
	return matrix.GobCodec[T]{}
}

// fillBlocked computes the matrix of kernel k the way a worker does, on one
// goroutine: processor-level blocks in DAG order, each a task that carries,
// of the blocks the pattern's DataDeps name, what its DataRegion declares
// (as engine.Job.TaskPayload ships it), encoded and run through
// core.TaskRunner.Run at one thread — which joins the shipped bands into
// strips and computes every sub-block in place with core.SubBlockFill.
func fillBlocked[T any](k core.Kernel[T], size, proc, thread dag.Size) *matrix.Store[T] {
	p := core.Problem[T]{Name: "blocked", Size: size, Kernel: k, Codec: codecFor[T]()}
	runner, err := core.NewTaskRunner(p, core.Config{Threads: 1, ProcPartition: proc, ThreadPartition: thread})
	if err != nil {
		panic(err)
	}
	pat := k.Pattern()
	geom := dag.MatrixGeometry(size, proc)
	graph := dag.Build(pat, geom)
	store := matrix.NewStore[T](geom)
	for _, id := range topo(graph) {
		vert := graph.Vertex(id)
		var shipped []*matrix.Block[T]
		for _, d := range vert.DataPre {
			q := geom.PosOf(d)
			if r := dag.DataRegion(pat, geom, vert.Pos, q); !r.Empty() {
				shipped = append(shipped, store.Get(q).Region(r))
			}
		}
		task, err := matrix.EncodeBlocks(p.Codec, shipped)
		if err != nil {
			panic(err)
		}
		result, err := runner.Run(id, task)
		if err != nil {
			panic(err)
		}
		out, err := matrix.DecodeBlock(p.Codec, result, geom, vert.Pos)
		if err != nil {
			panic(err)
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

// rowKernel is a kernel with a Row of its own.
type rowKernel[T any] interface {
	core.Kernel[T]
	core.RowKernel[T]
}

// hideRow is a kernel without its Row: the runtime reaches its Cell through
// the adapter, as it does for a kernel that never had one.
type hideRow[T any] struct{ core.Kernel[T] }

// under is a row kernel computed under another pattern than its own.
type under[T any] struct {
	rowKernel[T]
	pat dag.Pattern
}

func (u under[T]) Pattern() dag.Pattern { return u.pat }

// cutRows is a pattern whose row order cuts every segment of the wrapped
// pattern's at random columns.
type cutRows struct {
	dag.Pattern
	rng *rand.Rand
}

func (c cutRows) RowOrder(r dag.Rect, visit func(i, j0, j1 int)) {
	c.Pattern.RowOrder(r, func(i, j0, j1 int) {
		for j0 < j1 {
			cut := j0 + 1 + c.rng.Intn(j1-j0)
			visit(i, j0, cut)
			j0 = cut
		}
	})
}

// checkRows computes k's matrix by segments cut at random columns and by
// one-cell segments behind the adapter, and holds both against want.
func checkRows[T any](t *testing.T, name string, k rowKernel[T], want [][]T, size, proc, thread dag.Size, rng *rand.Rand) {
	t.Helper()
	rows := fillBlocked[T](under[T]{k, cutRows{k.Pattern(), rng}}, size, proc, thread).Assemble()
	cells := fillBlocked[T](hideRow[T]{k}, size, proc, thread).Assemble()
	if r, c := reflect.DeepEqual(rows, want), reflect.DeepEqual(cells, want); !r || !c {
		t.Errorf("%s %v proc %v thread %v: by segments equals Sequential(): %v, by cells: %v", name, size, proc, thread, r, c)
	}
}

// Row, Cell and Sequential() are one recurrence: each ported kernel, on
// random matrices cut into random blocks and sub-blocks, computes the same
// cells by segments, by cells, and in the plain loop nest.
func TestRowMatchesCellMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 23)))
	upTo := func(max int) dag.Size { return dag.Size{Rows: 1 + rng.Intn(max), Cols: 1 + rng.Intn(max)} }
	for trial := 0; trial < 25; trial++ {
		size, proc, thread := upTo(40), upTo(20), upTo(8)
		a, b := RandomDNA(size.Rows, rng.Int63()), RandomDNA(size.Cols, rng.Int63())
		e := NewEditDistance(a, b)
		checkRows[int32](t, "editdist", e, e.Sequential(), size, proc, thread, rng)
		l := NewLCS(a, b)
		checkRows[int32](t, "lcs", l, l.Sequential(), size, proc, thread, rng)
		nw := NewNeedlemanWunsch(a, b)
		checkRows[int32](t, "needleman", nw, nw.Sequential(), size, proc, thread, rng)
		be := NewBandedEdit(a, b, rng.Intn(12))
		checkRows[int32](t, "banded", be, be.Sequential(), size, proc, thread, rng)
		gt := NewGotoh(a, b)
		checkRows[GotohCell](t, "gotoh", gt, gt.Sequential(), size, proc, thread, rng)
	}
}

// A Row that reads a computed cell nobody shipped dies as a Cell does: the
// wavefront recurrence over a pattern whose data region leaves out the
// north block.
func TestRowOutsideRegionPanics(t *testing.T) {
	a := RandomDNA(8, 1)
	e := NewEditDistance(a, a)
	noNorth := dag.Custom{
		PatternName:    "wavefront-without-north",
		PrecursorsFunc: dag.Wavefront{}.Precursors,
		DataDepsFunc: func(g dag.Geometry, p dag.Pos, buf []dag.Pos) []dag.Pos {
			if p.Col > 0 {
				buf = append(buf, dag.Pos{Row: p.Row, Col: p.Col - 1})
			}
			return buf
		},
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "outside the sub-task data region") {
			t.Errorf("recovered %q, want the under-specified data region panic", msg)
		}
	}()
	fillBlocked[int32](under[int32]{e, noNorth}, e.Size(), dag.Square(4), dag.Square(2))
	t.Error("a read of the north block that was not shipped went through")
}

// noCorner is the wavefront pattern declaring that a block reads nothing of
// its north-west neighbour.
type noCorner struct{ dag.Wavefront }

func (noCorner) DataRegion(g dag.Geometry, p, q dag.Pos) dag.Rect {
	if q.Row < p.Row && q.Col < p.Col {
		return dag.Rect{}
	}
	return dag.Wavefront{}.DataRegion(g, p, q)
}

// And so does a read outside what the pattern declared of a dependency that
// was shipped: the north and west regions arrive, the north-west one is
// empty, and the first cell of block (1,1) reads the corner.
func TestReadOutsideDeclaredRegionPanics(t *testing.T) {
	a := RandomDNA(8, 1)
	e := NewEditDistance(a, a)
	if err := dag.Validate(noCorner{}, dag.MatrixGeometry(e.Size(), dag.Square(4))); err == nil {
		t.Error("the empty region passed dag.Validate")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "read of cell (3,3) outside the sub-task data region") {
			t.Errorf("recovered %q, want the under-specified data region panic at the corner", msg)
		}
	}()
	fillBlocked[int32](under[int32]{e, noCorner{}}, e.Size(), dag.Square(4), dag.Square(2))
	t.Error("a read of the north-west corner that was not shipped went through")
}

// One sub-block fill allocates a constant: nothing per segment or per cell,
// in the interior and — where every cell of the row above is a boundary
// read handed over as a run of one — in the matrix's top row.
func TestSubBlockFillAllocsDoNotGrow(t *testing.T) {
	a := RandomDNA(64, 1)
	e := NewEditDistance(a, MutateSeq(a, DNAAlphabet, 0.2, 2))
	fill := core.SubBlockFill[int32](e)
	shared := matrix.NewBlock[int32](dag.Rect{Rows: 64, Cols: 64})
	allocs := func(r dag.Rect) float64 {
		v := matrix.NewView(matrix.NewBlock[int32](r), []*matrix.Block[int32]{shared}, e.Pattern(), e.Size(), e.Boundary)
		return testing.AllocsPerRun(20, func() { fill(v) })
	}
	for _, row0 := range []int{0, 32} {
		short, tall := allocs(dag.Rect{Row0: row0, Col0: 16, Rows: 2, Cols: 8}), allocs(dag.Rect{Row0: row0, Col0: 16, Rows: 32, Cols: 32})
		if short != tall || tall > 4 {
			t.Errorf("row %d: a 2x8 fill allocates %v times, a 32x32 fill %v: want the same small constant", row0, short, tall)
		}
	}
}
