package dag

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func libraryPatterns() []Pattern {
	return []Pattern{Wavefront{}, RowColumn{}, Triangular{}, Dominance{}, RowOnly{}, Chain{}}
}

// Every library pattern, on a spread of geometries, must (a) be acyclic
// with all vertices reachable, (b) have every data dependency covered by
// the topological order, (c) visit each existing cell exactly once in
// RowOrder and (d) declare data regions inside their dependencies.
func TestLibraryPatternInvariants(t *testing.T) {
	geoms := []Geometry{
		MatrixGeometry(Square(1), Square(1)),
		MatrixGeometry(Square(7), Square(1)),
		MatrixGeometry(Square(12), Square(3)),
		MatrixGeometry(Square(12), Square(5)),
		MatrixGeometry(Size{9, 17}, Size{4, 3}),
		NewGeometry(Rect{6, 6, 6, 6}, Square(2)), // thread-level style region
	}
	for _, pat := range libraryPatterns() {
		for _, g := range geoms {
			if err := Validate(pat, g); err != nil {
				t.Errorf("%s %v: %v", pat.Name(), g.Region, err)
			}
		}
	}
}

// Property test: random square geometries keep the invariants.
func TestLibraryPatternInvariantsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-check sweep")
	}
	for _, pat := range libraryPatterns() {
		pat := pat
		f := func(n, br, bc uint8) bool {
			g := MatrixGeometry(Square(int(n%24)+1), Size{int(br%6) + 1, int(bc%6) + 1})
			return Validate(pat, g) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", pat.Name(), err)
		}
	}
}

func TestWavefrontDegrees(t *testing.T) {
	g := MatrixGeometry(Square(12), Square(4)) // 3x3 grid
	gr := Build(Wavefront{}, g)
	if gr.N != 9 {
		t.Fatalf("N = %d, want 9", gr.N)
	}
	if got := gr.Vertex(g.ID(Pos{0, 0})).PreCnt; got != 0 {
		t.Errorf("corner PreCnt = %d, want 0", got)
	}
	if got := gr.Vertex(g.ID(Pos{1, 1})).PreCnt; got != 2 {
		t.Errorf("interior PreCnt = %d, want 2", got)
	}
	roots := gr.Roots()
	if len(roots) != 1 || roots[0] != g.ID(Pos{0, 0}) {
		t.Errorf("roots = %v, want [top-left]", roots)
	}
}

func TestTriangularExistence(t *testing.T) {
	g := MatrixGeometry(Square(12), Square(4)) // 3x3 grid over upper triangle
	gr := Build(Triangular{}, g)
	// Blocks with Row <= Col exist: 6 of 9.
	if gr.N != 6 {
		t.Fatalf("N = %d, want 6", gr.N)
	}
	tr := Triangular{}
	if tr.BlockExists(g, Pos{2, 0}) {
		t.Error("block strictly below diagonal should not exist")
	}
	if !tr.BlockExists(g, Pos{1, 1}) {
		t.Error("diagonal block should exist")
	}
	// All three diagonal blocks are roots (the base case of the recurrence).
	roots := gr.Roots()
	if len(roots) != 3 {
		t.Fatalf("roots = %v, want the 3 diagonal blocks", roots)
	}
	for _, id := range roots {
		p := g.PosOf(id)
		if p.Row != p.Col {
			t.Errorf("root %v is not on the diagonal", p)
		}
	}
}

func TestTriangularNonSquareBlocks(t *testing.T) {
	// Rectangular blocks straddle the diagonal irregularly; invariants
	// must still hold.
	g := MatrixGeometry(Square(20), Size{3, 5})
	if err := Validate(Triangular{}, g); err != nil {
		t.Fatal(err)
	}
}

func TestTriangularCellOrderRespectsDeps(t *testing.T) {
	// Within one block, (i+1, j), (i, j-1), (i+1, j-1) must come before
	// (i, j).
	r := Rect{2, 2, 5, 5}
	seen := make(map[[2]int]int)
	step := 0
	Triangular{}.RowOrder(r, func(i, j0, j1 int) {
		for j := j0; j < j1; j++ {
			for _, d := range [][2]int{{i + 1, j}, {i, j - 1}, {i + 1, j - 1}} {
				di, dj := d[0], d[1]
				if r.Contains(di, dj) && di <= dj {
					if _, ok := seen[[2]int{di, dj}]; !ok {
						t.Fatalf("cell (%d,%d) visited before its dependency (%d,%d)", i, j, di, dj)
					}
				}
			}
			seen[[2]int{i, j}] = step
			step++
		}
	})
	if len(seen) == 0 {
		t.Fatal("no cells visited")
	}
}

func TestRowColumnDataDeps(t *testing.T) {
	g := MatrixGeometry(Square(20), Square(4)) // 5x5 grid
	var buf []Pos
	buf = RowColumn{}.DataDeps(g, Pos{2, 3}, buf)
	want := map[Pos]bool{
		{2, 0}: true, {2, 1}: true, {2, 2}: true, // row to the left
		{0, 3}: true, {1, 3}: true, // column above
		{1, 2}: true, // north-west diagonal
	}
	if len(buf) != len(want) {
		t.Fatalf("DataDeps = %v, want %d blocks", buf, len(want))
	}
	for _, p := range buf {
		if !want[p] {
			t.Errorf("unexpected data dep %v", p)
		}
	}
}

func TestTriangularDataDepsIncludeSWCorner(t *testing.T) {
	// Cell-level reads of (i+1, j-1) can land in block (r+1, c-1): the
	// data region must include it.
	g := MatrixGeometry(Square(20), Square(4))
	var buf []Pos
	buf = Triangular{}.DataDeps(g, Pos{1, 3}, buf)
	found := false
	for _, p := range buf {
		if p == (Pos{2, 2}) {
			found = true
		}
	}
	if !found {
		t.Errorf("DataDeps(1,3) = %v, missing south-west corner block (2,2)", buf)
	}
}

func TestRowOnlyDegrees(t *testing.T) {
	g := MatrixGeometry(Size{4, 8}, Size{1, 2}) // 4x4 grid
	gr := Build(RowOnly{}, g)
	// Whole first row is immediately computable.
	roots := gr.Roots()
	if len(roots) != 4 {
		t.Fatalf("roots = %d, want 4 (entire first block row)", len(roots))
	}
	// Block (2, 3) depends on all four blocks of row 1 up to col 3.
	if got := gr.Vertex(g.ID(Pos{2, 3})).PreCnt; got != 4 {
		t.Errorf("PreCnt(2,3) = %d, want 4", got)
	}
	if got := gr.Vertex(g.ID(Pos{2, 0})).PreCnt; got != 1 {
		t.Errorf("PreCnt(2,0) = %d, want 1", got)
	}
}

func TestChainIsAPipeline(t *testing.T) {
	g := MatrixGeometry(Size{1, 10}, Size{1, 2})
	gr := Build(Chain{}, g)
	if gr.N != 5 {
		t.Fatalf("N = %d, want 5", gr.N)
	}
	roots := gr.Roots()
	if len(roots) != 1 {
		t.Fatalf("chain must have exactly one root, got %v", roots)
	}
}

func TestDominanceDataDepsAreFullRectangle(t *testing.T) {
	g := MatrixGeometry(Square(12), Square(4))
	var buf []Pos
	buf = Dominance{}.DataDeps(g, Pos{2, 2}, buf)
	if len(buf) != 8 { // 3x3 rectangle minus self
		t.Fatalf("DataDeps = %v, want 8 blocks", buf)
	}
}

func TestLookupLibrary(t *testing.T) {
	for _, name := range []string{NameWavefront, NameRowColumn, NameTriangular, NameDominance, NameRowOnly, NameChain} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("no-such-pattern"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	// The library is the design's six patterns and nothing else.
	want := []string{NameChain, NameDominance, NameRowColumn, NameRowOnly, NameTriangular, NameWavefront}
	if names := LibraryNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("library holds %v, want %v", names, want)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	mustPanic(t, func() { Register(Wavefront{}) })
}

func TestCustomPatternDefaults(t *testing.T) {
	c := Custom{PatternName: "test-default"}
	g := MatrixGeometry(Square(6), Square(2))
	if !c.CellExists(3, 3) {
		t.Error("default CellExists should be true")
	}
	if !c.BlockExists(g, Pos{1, 1}) {
		t.Error("default BlockExists should be true for in-grid positions")
	}
	if c.BlockExists(g, Pos{5, 5}) {
		t.Error("BlockExists out of grid should be false")
	}
	if got := c.Precursors(g, Pos{1, 1}, nil); len(got) != 0 {
		t.Errorf("default Precursors = %v, want empty", got)
	}
	var segs [][3]int
	c.RowOrder(Rect{0, 0, 2, 3}, func(i, j0, j1 int) { segs = append(segs, [3]int{i, j0, j1}) })
	if want := [][3]int{{0, 0, 3}, {1, 0, 3}}; !reflect.DeepEqual(segs, want) {
		t.Errorf("default RowOrder visited %v, want the whole rows %v", segs, want)
	}
	if _, err := topoOrder(Build(c, g)); err != nil {
		t.Error(err)
	}
}

func TestCustomPatternBadTopologyDetected(t *testing.T) {
	// A pattern whose data deps are NOT covered by precursors must be
	// rejected by Validate.
	bad := Custom{
		PatternName: "test-bad",
		PrecursorsFunc: func(g Geometry, p Pos, buf []Pos) []Pos {
			if p.Col > 0 {
				buf = append(buf, Pos{p.Row, p.Col - 1})
			}
			return buf
		},
		DataDepsFunc: func(g Geometry, p Pos, buf []Pos) []Pos {
			if p.Row > 0 {
				buf = append(buf, Pos{p.Row - 1, p.Col}) // not an ancestor
			}
			return buf
		},
	}
	g := MatrixGeometry(Square(4), Square(2))
	if err := Validate(bad, g); err == nil || !strings.Contains(err.Error(), "not a topological ancestor") {
		t.Errorf("Validate answered %v for a pattern with uncovered data deps", err)
	}
}

func TestBuildPanicsOnBogusPrecursor(t *testing.T) {
	bogus := Custom{
		PatternName: "test-bogus",
		PrecursorsFunc: func(g Geometry, p Pos, buf []Pos) []Pos {
			return append(buf, Pos{-5, -5})
		},
	}
	mustPanic(t, func() { Build(bogus, MatrixGeometry(Square(4), Square(2))) })
}

// DataDeps must not contain duplicates: the runtime refcounts blocks by
// the data-dependency lists when memory reclamation is enabled.
func TestLibraryPatternDataDepsUnique(t *testing.T) {
	geoms := []Geometry{
		MatrixGeometry(Square(18), Square(4)),
		MatrixGeometry(Square(18), Size{3, 5}),
	}
	for _, pat := range libraryPatterns() {
		for _, g := range geoms {
			var buf []Pos
			for r := 0; r < g.Grid.Rows; r++ {
				for c := 0; c < g.Grid.Cols; c++ {
					p := Pos{r, c}
					if !pat.BlockExists(g, p) {
						continue
					}
					buf = pat.DataDeps(g, p, buf[:0])
					seen := make(map[Pos]bool, len(buf))
					for _, d := range buf {
						if seen[d] {
							t.Fatalf("%s: duplicate data dep %v of %v", pat.Name(), d, p)
						}
						seen[d] = true
					}
				}
			}
		}
	}
}

// The shape a pattern declares is what the read path trusts instead of
// asking CellExists: Dense must mean no hole anywhere in the matrix, Convex
// that the computed cells of every row and column are contiguous, and
// everything that declares nothing is Sparse.
func TestDeclaredShapesHold(t *testing.T) {
	holes := func(i, j int) bool { return (i+2*j)%3 != 0 }
	want := map[Pattern]Shape{
		Wavefront{}: Dense, RowColumn{}: Dense, Dominance{}: Dense, RowOnly{}: Dense,
		Triangular{}: Convex, Chain{}: Convex,
	}
	for pat, shape := range want {
		if got := ShapeOf(pat); got != shape {
			t.Errorf("%s declares shape %d, want %d", pat.Name(), got, shape)
		}
	}
	if got := ShapeOf(Custom{PatternName: "all"}); got != Dense {
		t.Errorf("Custom without CellExistsFunc declares shape %d, want Dense", got)
	}
	if got := ShapeOf(Custom{PatternName: "some", CellExistsFunc: holes}); got != Sparse {
		t.Errorf("Custom with CellExistsFunc declares shape %d, want Sparse", got)
	}
	if got := ShapeOf(undeclared{Wavefront{}}); got != Sparse {
		t.Errorf("a pattern without a Shape method has shape %d, want Sparse", got)
	}

	const n = 19
	// segments counts the maximal runs of computed cells along one line.
	segments := func(exists func(k int) bool) int {
		segs, prev := 0, false
		for k := 0; k < n; k++ {
			cur := exists(k)
			if cur && !prev {
				segs++
			}
			prev = cur
		}
		return segs
	}
	for pat, shape := range want {
		for a := 0; a < n; a++ {
			row := segments(func(k int) bool { return pat.CellExists(a, k) })
			col := segments(func(k int) bool { return pat.CellExists(k, a) })
			if row > 1 || col > 1 {
				t.Errorf("%s: row or column %d has computed cells in %d and %d pieces", pat.Name(), a, row, col)
			}
			if shape == Dense {
				for b := 0; b < n; b++ {
					if !pat.CellExists(a, b) {
						t.Errorf("%s is declared Dense but does not compute (%d,%d)", pat.Name(), a, b)
					}
				}
			}
		}
	}
}

// undeclared is a user pattern written before shapes existed: it has the
// Pattern methods and no other.
type undeclared struct{ Pattern }

// plantedRows is a pattern whose RowOrder is whatever the test plants.
type plantedRows struct {
	Pattern
	rows func(r Rect, visit func(i, j0, j1 int))
}

func (p plantedRows) RowOrder(r Rect, visit func(i, j0, j1 int)) { p.rows(r, visit) }

// A row order may visit a block's cells in any segments and any order, as a
// Custom's own or its default over holes does; an order whose segment is
// empty, reversed, outside the block, over a hole or over a cell visited
// before, or that skips a computed cell, is refused.
func TestRowOrderCheck(t *testing.T) {
	g := MatrixGeometry(Size{9, 17}, Size{4, 3})
	// Columns left to right, each top down, one cell a segment.
	colMajor := Custom{PatternName: "colmajor", RowOrderFunc: func(r Rect, visit func(i, j0, j1 int)) {
		for j := r.Col0; j < r.Col0+r.Cols; j++ {
			for i := r.Row0; i < r.Row0+r.Rows; i++ {
				visit(i, j, j+1)
			}
		}
	}}
	holes := Custom{PatternName: "checker", CellExistsFunc: func(i, j int) bool { return (i+j)%3 != 0 }}
	for _, pat := range []Pattern{colMajor, holes} {
		if err := Validate(pat, g); err != nil {
			t.Errorf("%s: %v", pat.Name(), err)
		}
	}

	eachRow := func(seg func(i, j0, j1 int, visit func(i, j0, j1 int))) func(r Rect, visit func(i, j0, j1 int)) {
		return func(r Rect, visit func(i, j0, j1 int)) {
			rowMajor(r, func(i, j0, j1 int) { seg(i, j0, j1, visit) })
		}
	}
	for _, c := range []struct {
		want string
		pat  plantedRows
	}{
		{"empty or reversed", plantedRows{Wavefront{}, eachRow(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j1); visit(i, j1, j0) })}},
		{"empty or reversed", plantedRows{Wavefront{}, eachRow(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j0); visit(i, j0, j1) })}},
		{"leaves the block", plantedRows{Wavefront{}, eachRow(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j1+1) })}},
		{"covers the hole", plantedRows{Triangular{}, rowMajor}},
		{"repeats the cell", plantedRows{Wavefront{}, eachRow(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j0+1); visit(i, j0, j1) })}},
		{"skips the cell", plantedRows{Wavefront{}, eachRow(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j1-1) })}},
	} {
		if err := checkRowOrder(Build(c.pat, g)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("a row order planted to be refused as %q was answered %v", c.want, err)
		}
	}
	if err := checkRowOrder(Build(plantedRows{Wavefront{}, rowMajor}, g)); err != nil {
		t.Errorf("the wavefront's own row order was refused: %v", err)
	}
}

// plantedRegion is a wavefront whose DataRegion a test plants.
type plantedRegion struct {
	Wavefront
	region func(g Geometry, p, q Pos) Rect
}

func (p plantedRegion) DataRegion(g Geometry, p0, q Pos) Rect { return p.region(g, p0, q) }

// The wavefront family declares what a block reads of each dependency — the
// last row of the block above, the last column of the block to the left, the
// corner cell of the block that is both — on clipped edge blocks and one-row
// and one-column blocks too; a pattern that declares nothing reads whole
// blocks; and a declared region that is empty or not a part of its
// dependency is refused.
func TestDataRegion(t *testing.T) {
	g := MatrixGeometry(Size{9, 17}, Size{4, 3}) // clipped to 1 row at the bottom, 2 columns at the right
	p := Pos{Row: 2, Col: 5}
	for q, want := range map[Pos]Rect{
		{Row: 1, Col: 5}: {Row0: 7, Col0: 15, Rows: 1, Cols: 2},
		{Row: 2, Col: 4}: {Row0: 8, Col0: 14, Rows: 1, Cols: 1},
		{Row: 1, Col: 4}: {Row0: 7, Col0: 14, Rows: 1, Cols: 1},
	} {
		if got := DataRegion(Wavefront{}, g, p, q); got != want {
			t.Errorf("wavefront: block %v reads %v of %v, want %v", p, got, q, want)
		}
	}
	if got, want := DataRegion(RowColumn{}, g, p, Pos{Row: 0, Col: 5}), g.Rect(Pos{Row: 0, Col: 5}); got != want {
		t.Errorf("rowcolumn declares no region but reads %v of a block covering %v", got, want)
	}
	for _, cols := range []int{1, 3, 17} { // one-column blocks, one-row blocks, one block a row
		if err := checkDataRegion(Build(Wavefront{}, MatrixGeometry(Size{9, 17}, Size{1, cols}))); err != nil {
			t.Error(err)
		}
	}
	planted := map[string]func(g Geometry, p, q Pos) Rect{
		"is empty for the north-west block": func(g Geometry, p, q Pos) Rect {
			if r := edgeRegion(g, p, q); r.Cells() > 1 {
				return r
			}
			return Rect{}
		},
		"reaches past its dependency": func(g Geometry, p, q Pos) Rect {
			r := edgeRegion(g, p, q)
			r.Cols++
			return r
		},
		"lies in the block itself": func(g Geometry, p, q Pos) Rect { return g.Rect(p) },
	}
	for name, region := range planted {
		if err := checkDataRegion(Build(plantedRegion{region: region}, g)); err == nil {
			t.Errorf("a DataRegion that %s passed checkDataRegion", name)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	var sb strings.Builder
	g := MatrixGeometry(Square(6), Square(3))
	if err := WriteDOT(&sb, Triangular{}, g); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "b0_0", "b0_1 -> b0_1", "}"} {
		if want == "b0_1 -> b0_1" {
			continue // no self edges expected; checked below
		}
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "b0_0 -> b0_0") {
		t.Fatal("self edge emitted")
	}
	// Triangular 2x2 grid: 3 blocks, diagonal roots feed (0,1).
	if !strings.Contains(out, "b0_0 -> b0_1") || !strings.Contains(out, "b1_1 -> b0_1") {
		t.Fatalf("expected diagonal->corner edges:\n%s", out)
	}
}
