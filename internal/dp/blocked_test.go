package dp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
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

// codecFor is the codec a kernel's Problem ships cells of T with: every
// library kernel's cells are fixed-size numbers.
func codecFor[T any]() matrix.Codec[T] {
	for _, c := range []any{matrix.BinaryCodec[int32]{}, matrix.BinaryCodec[int64]{}, matrix.BinaryCodec[uint64]{}} {
		if c, ok := c.(matrix.Codec[T]); ok {
			return c
		}
	}
	panic(fmt.Sprintf("no library codec for %T", *new(T)))
}

// fillBlocked computes the matrix of kernel k the way a worker does, on one
// goroutine: processor-level blocks in DAG order, each a task that carries,
// of the blocks the pattern's DataDeps name, what its DataRegion declares
// (as engine.Job.TaskPayload ships it), encoded and run through
// core.TaskRunner.Run at one thread — which joins the shipped bands into
// strips and computes every sub-block in place with core.SubBlockFill.
func fillBlocked[T any](k core.Kernel[T], size, proc, thread dag.Size) *matrix.Store[T] {
	return fillThreads(k, size, proc, thread, 1)
}

// fillThreads is fillBlocked at the given number of compute threads: with
// more than one, each computes its sub-blocks in a scratch block of its own.
func fillThreads[T any](k core.Kernel[T], size, proc, thread dag.Size, threads int) *matrix.Store[T] {
	p := core.Problem[T]{Name: "blocked", Size: size, Kernel: k, Codec: codecFor[T]()}
	runner, err := core.NewTaskRunner(p, core.Config{Threads: threads, ProcPartition: proc, ThreadPartition: thread})
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
		ks := NewKnapsack(n, 40, 14)
		run32("knapsack", ks, ks.Size(), ks.Sequential())
		dm := NewDominance43(12, 15)
		run32("dominance", dm.Problem().Kernel, dm.Size(), dm.Sequential())
		mc := NewMatrixChain(n, 2, 30, 16)
		run64("matrixchain", mc, mc.Size(), mc.Sequential())
		cyk := NewCYK(ParenGrammar(), parens)
		check("cyk", proc, thread, fillBlocked[uint64](cyk, cyk.Size(), proc, thread).Assemble(), cyk.Sequential())
		rg := NewCYK(RandomGrammar(12, 40, DNAAlphabet, 18), a)
		check("cyk-random", proc, thread, fillBlocked[uint64](rg, rg.Size(), proc, thread).Assemble(), rg.Sequential())
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

// A walk that meets cells the pattern does not compute hands them over with
// the value Get answers: rowRuns one at a time, the next run starting
// behind them, and a rows walk the row segments that hold one cell by
// cell, the segments of the rows after them as bands again.
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
	for _, w := range []int{1, 3} {
		walk := newRows(v, 2, w, n)
		for r := 0; r < n; {
			cells, stride, m := walk.band(r)
			for x := 0; x < m; x++ {
				for t, c := range cells[x*stride:][:w] {
					got = append(got, fmt.Sprint(r+x, 2+t, c))
				}
			}
			r += m
		}
	}
	for j := 0; j < n; j++ {
		want = append(want, fmt.Sprint(2, j, v.Get(2, j)))
	}
	for _, w := range []int{1, 3} {
		for r := 0; r < n; r++ {
			for t := 0; t < w; t++ {
				want = append(want, fmt.Sprint(r, 2+t, v.Get(r, 2+t)))
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("walks visited\n%v\nwant\n%v", got, want)
	}
}

// oneCell is the per-cell kernel of k, whose Cell is a row segment of one.
// The runtime reaches it through core.Cells, as it does a kernel that only
// has a Cell.
type oneCell[T any] struct{ core.Kernel[T] }

func (k oneCell[T]) Cell(v *matrix.View[T], i, j int) T {
	var out [1]T
	k.Row(v, i, j, out[:])
	return out[0]
}

// byCells is k computed cell by cell through core.Cells.
func byCells[T any](k core.Kernel[T]) core.Kernel[T] { return core.Cells[T](oneCell[T]{k}) }

// under is a kernel computed under another pattern than its own.
type under[T any] struct {
	core.Kernel[T]
	pat dag.Pattern
}

func (u under[T]) Pattern() dag.Pattern { return u.pat }

// cutRows is a pattern whose row order cuts every segment of the wrapped
// pattern's at columns drawn from seed and the segment, so that compute
// threads running it side by side cut alike.
type cutRows struct {
	dag.Pattern
	seed uint64
}

func (c cutRows) RowOrder(r dag.Rect, visit func(i, j0, j1 int)) {
	c.Pattern.RowOrder(r, func(i, j0, j1 int) {
		for j0 < j1 {
			h := (c.seed ^ uint64(i)<<32 ^ uint64(j0)) * 0x9E3779B97F4A7C15
			cut := j0 + 1 + int((h>>33)%uint64(j1-j0))
			visit(i, j0, cut)
			j0 = cut
		}
	})
}

// checkRows computes k's matrix by segments cut at random columns, in place
// at one thread and in scratch blocks at two, and by one-cell segments
// through core.Cells, and holds each against want.
func checkRows[T any](t *testing.T, name string, k core.Kernel[T], want [][]T, size, proc, thread dag.Size, rng *rand.Rand) {
	t.Helper()
	cut := under[T]{k, cutRows{k.Pattern(), rng.Uint64()}}
	for _, run := range []struct {
		how string
		got [][]T
	}{
		{"by segments", fillBlocked[T](cut, size, proc, thread).Assemble()},
		{"by segments at two threads", fillThreads[T](cut, size, proc, thread, 2).Assemble()},
		{"by cells", fillBlocked(byCells(k), size, proc, thread).Assemble()},
	} {
		if !reflect.DeepEqual(run.got, want) {
			t.Errorf("%s %v proc %v thread %v: %s differs from Sequential()", name, size, proc, thread, run.how)
		}
	}
}

// Row over a segment, Row over one cell and Sequential() are one
// recurrence: each kernel with a Row — the wavefront family's and the 2D/1D
// kernels' — on random matrices cut into random blocks and sub-blocks,
// computes the same cells by segments, in place and in scratch blocks, by
// cells through core.Cells, and in the plain loop nest.
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
		s := NewSWGG(a, b)
		checkRows[int32](t, "swgg", s, s.Sequential(), size, proc, thread, rng)
		ks := NewKnapsack(size.Rows, size.Cols-1, rng.Int63())
		checkRows[int32](t, "knapsack", ks, ks.Sequential(), size, proc, thread, rng)

		// The triangular family on a square matrix.
		sq, sqProc, sqThread := dag.Square(size.Rows), dag.Square(proc.Rows), dag.Square(thread.Cols)
		for _, minLoop := range []int{0, 1, 3} {
			nu := NewNussinov(RandomRNA(sq.Rows, rng.Int63()))
			nu.MinLoop = minLoop
			checkRows[int32](t, fmt.Sprint("nussinov minloop ", minLoop), nu, nu.Sequential(), sq, sqProc, sqThread, rng)
		}
		mc := NewMatrixChain(sq.Rows, 2, 30, rng.Int63())
		checkRows[int64](t, "matrixchain", mc, mc.Sequential(), sq, sqProc, sqThread, rng)
		cyk := NewCYK(RandomGrammar(12, 40, DNAAlphabet, rng.Int63()), RandomDNA(sq.Rows, rng.Int63()))
		checkRows[uint64](t, "cyk", cyk, cyk.Sequential(), sq, sqProc, sqThread, rng)
	}
}

// A Row that reads a computed cell nobody shipped panics: the wavefront
// recurrence over a pattern whose data region leaves out the north block.
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

// A sweep of a 2D/1D kernel allocates nothing: a one-thread fill of a
// SWGG block and of a Nussinov block — off the diagonal, and on it where
// the bands meet holes — allocates nothing at any block height, so
// nothing per row segment.
func TestRowSweepsAllocateNothing(t *testing.T) {
	const n = 96
	a := RandomDNA(n, 1)
	shared := matrix.NewBlock[int32](dag.Rect{Rows: n, Cols: n})
	for _, k := range []core.Kernel[int32]{NewSWGG(a, MutateSeq(a, DNAAlphabet, 0.2, 2)), NewNussinov(RandomRNA(n, 3))} {
		fill := core.SubBlockFill(k)
		for _, r := range []dag.Rect{
			{Row0: 32, Col0: 64, Rows: 2, Cols: 16}, {Row0: 16, Col0: 64, Rows: 32, Cols: 32},
			{Row0: 32, Col0: 32, Rows: 4, Cols: 32}, {Row0: 32, Col0: 32, Rows: 32, Cols: 32},
		} {
			v := matrix.NewView(matrix.NewBlock[int32](r), []*matrix.Block[int32]{shared}, k.Pattern(), dag.Square(n), k.Boundary)
			if allocs := testing.AllocsPerRun(10, func() { fill(v) }); allocs != 0 {
				t.Errorf("%T: a fill of %v allocates %v times, want none", k, r, allocs)
			}
		}
	}
}

// rowsOf reports whether kernel k computes its row segments itself: its
// Problem hands the runtime k, not k behind core.Cells.
func rowsOf[T any](k interface{ Problem() core.Problem[T] }) (dag.Pattern, bool) {
	p := k.Problem()
	return p.Kernel.Pattern(), any(p.Kernel) == any(k)
}

// Every library kernel of a 2D/1D pattern has a Row: none reaches the
// runtime behind core.Cells, whose interface call and view lookups per
// cell a 2D/1D scan pays O(n) times over. The table is held against the
// package's source, so a kernel added without an entry fails too.
func TestTwoDOneDKernelsHaveRows(t *testing.T) {
	a := RandomDNA(8, 1)
	kernels := map[string]func() (dag.Pattern, bool){
		"SWGG":            func() (dag.Pattern, bool) { return rowsOf[int32](NewSWGG(a, a)) },
		"Nussinov":        func() (dag.Pattern, bool) { return rowsOf[int32](NewNussinov(a)) },
		"MatrixChain":     func() (dag.Pattern, bool) { return rowsOf[int64](NewMatrixChain(8, 2, 9, 1)) },
		"CYK":             func() (dag.Pattern, bool) { return rowsOf[uint64](NewCYK(ParenGrammar(), a)) },
		"Knapsack":        func() (dag.Pattern, bool) { return rowsOf[int32](NewKnapsack(8, 9, 1)) },
		"Dominance43":     func() (dag.Pattern, bool) { return rowsOf[int32](NewDominance43(8, 1)) },
		"EditDistance":    func() (dag.Pattern, bool) { return rowsOf[int32](NewEditDistance(a, a)) },
		"LCS":             func() (dag.Pattern, bool) { return rowsOf[int32](NewLCS(a, a)) },
		"NeedlemanWunsch": func() (dag.Pattern, bool) { return rowsOf[int32](NewNeedlemanWunsch(a, a)) },
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Pattern" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			found++
			if id, ok := recv.(*ast.Ident); !ok || kernels[id.Name] == nil {
				t.Errorf("%s: kernel %v is not in the table", name, recv)
			}
		}
	}
	if found != len(kernels) {
		t.Errorf("the source declares %d kernels, the table %d", found, len(kernels))
	}
	for name, k := range kernels {
		if pat, rows := k(); pat.Class() == dag.Class2D1D && !rows {
			t.Errorf("%s: a %s kernel (%s) runs behind core.Cells, not its own Row", name, pat.Class(), pat.Name())
		}
	}
}
