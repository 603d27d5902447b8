package dag

import (
	"fmt"
	"sort"
	"sync"
)

// Class labels a pattern with the tD/eD taxonomy of Galil and Park used by
// the paper: a problem of size n is tD/eD when the matrix has O(n^t) cells
// and each cell reads O(n^e) other cells.
type Class string

const (
	Class2D0D Class = "2D/0D"
	Class2D1D Class = "2D/1D"
	Class2D2D Class = "2D/2D"
	Class1D0D Class = "1D/0D"
)

// Pattern is a DAG Pattern Model: it defines which cells of the DP matrix
// are computed, how blocks of cells depend on one another at any
// granularity, and in which order the cells inside one block must be
// evaluated.
//
// Block-level methods receive a Geometry so that the same pattern drives
// both the processor-level DAG (geometry over the whole matrix) and every
// thread-level DAG (geometry over one processor-level block). With a 1x1
// block size they describe the cell-level DAG itself.
type Pattern interface {
	// Name is the library identifier of the pattern.
	Name() string
	// Class is the tD/eD classification.
	Class() Class
	// CellExists reports whether cell (i, j) is part of the computation.
	CellExists(i, j int) bool
	// BlockExists reports whether block p of geometry g contains at least
	// one computed cell.
	BlockExists(g Geometry, p Pos) bool
	// Precursors appends to buf the direct topological precursors of
	// block p within geometry g and returns the extended slice. The set
	// must be minimal-ish but, together with transitivity, must cover
	// every data dependency inside the geometry's region.
	Precursors(g Geometry, p Pos, buf []Pos) []Pos
	// DataDeps appends to buf every block of geometry g whose cells the
	// recurrence may read while computing block p (the
	// data-communication level of the model).
	DataDeps(g Geometry, p Pos, buf []Pos) []Pos
	// RowOrder visits every computed cell of region r exactly once, a
	// row segment at a time: visit(i, j0, j1) stands for cells (i, j0) ..
	// (i, j1-1), j0 < j1, computed left to right. The order of the
	// segments, and of the cells in each, respects the cell-level
	// dependencies of the recurrence (assuming all cells outside r that
	// the cells of r read are already available). It is the order the
	// thread level computes a sub-block in; Validate checks that it
	// covers the block's computed cells and nothing else.
	RowOrder(r Rect, visit func(i, j0, j1 int))
}

// Shape is what a pattern promises about which cells inside the matrix it
// computes. The read path uses it to decide how often CellExists must be
// consulted: a cell CellExists rejects answers the kernel's Boundary even
// when a shipped block covers it (the lower triangle of a Triangular
// diagonal block holds zeros, not boundary values).
type Shape uint8

const (
	// Sparse promises nothing: any cell may be a hole, so every read and
	// every cell of a run is tested. It is the zero value, and what a
	// pattern that declares no shape gets.
	Sparse Shape = iota
	// Convex patterns have holes, but the computed cells of every row and
	// of every column are contiguous: a run whose two end cells exist has
	// no hole in between.
	Convex
	// Dense patterns compute every cell of the matrix: existence is the
	// bounds test.
	Dense
)

// ShapeOf returns the shape p declares with an optional Shape() method.
// The library patterns declare theirs by construction and Custom by
// whether it has a CellExistsFunc; any other pattern is Sparse until it
// says otherwise.
func ShapeOf(p Pattern) Shape {
	if s, ok := p.(interface{ Shape() Shape }); ok {
		return s.Shape()
	}
	return Sparse
}

// DataRegion is the data-communication level of the model at cell
// granularity: the rectangle of block q's cells that the recurrence may read
// while it computes block p, for a q among p's DataDeps. It is what a task
// is shipped of q. A pattern declares it with an optional DataRegion method
// of this signature (minus the pattern), as Wavefront does; any
// other pattern, a Custom included, reads the whole of q. The region must be
// non-empty and lie inside g.Rect(q) (Validate); a cell read
// outside it is the under-specified-region panic of matrix.View.
func DataRegion(pat Pattern, g Geometry, p, q Pos) Rect {
	if dr, ok := pat.(interface {
		DataRegion(g Geometry, p, q Pos) Rect
	}); ok {
		return dr.DataRegion(g, p, q)
	}
	return g.Rect(q)
}

// edgeRegion is what a recurrence that reads its west, north and north-west
// neighbour cells reads of block q while computing block p: the last row of
// a block above, the last column of a block to the left, and so the one
// corner cell of the block that is both.
func edgeRegion(g Geometry, p, q Pos) Rect {
	r := g.Rect(q)
	if q.Row < p.Row {
		r.Row0, r.Rows = r.Row0+r.Rows-1, 1
	}
	if q.Col < p.Col {
		r.Col0, r.Cols = r.Col0+r.Cols-1, 1
	}
	return r
}

// library is the DAG Pattern Model library: built-in patterns plus
// user-registered ones.
var library = struct {
	sync.RWMutex
	m map[string]Pattern
}{m: make(map[string]Pattern)}

// Register adds a pattern to the DAG Pattern Model library. It panics if
// the name is already taken; user-defined patterns must use fresh names.
func Register(p Pattern) {
	library.Lock()
	defer library.Unlock()
	if _, dup := library.m[p.Name()]; dup {
		panic(fmt.Sprintf("dag: pattern %q registered twice", p.Name()))
	}
	library.m[p.Name()] = p
}

// Lookup retrieves a pattern from the library by name.
func Lookup(name string) (Pattern, bool) {
	library.RLock()
	defer library.RUnlock()
	p, ok := library.m[name]
	return p, ok
}

// LibraryNames returns the sorted names of all registered patterns.
func LibraryNames() []string {
	library.RLock()
	defer library.RUnlock()
	names := make([]string, 0, len(library.m))
	for n := range library.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// appendIf appends p to buf when the pattern pat considers it an existing
// block of geometry g.
func appendIf(pat Pattern, g Geometry, p Pos, buf []Pos) []Pos {
	if g.InGrid(p) && pat.BlockExists(g, p) {
		buf = append(buf, p)
	}
	return buf
}

// rowMajor visits the rows of r top to bottom, each whole.
func rowMajor(r Rect, visit func(i, j0, j1 int)) {
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		visit(i, r.Col0, r.Col0+r.Cols)
	}
}
