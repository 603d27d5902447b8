package dag

import "fmt"

// Additional library patterns beyond the six core ones: full-previous-row
// recurrences (Viterbi) and banded wavefronts (banded alignment).
const (
	NamePrevRow = "prevrow"
	NameBanded  = "banded"
)

func init() {
	Register(PrevRow{})
	// Banded is parameterized; a default-width instance is registered
	// for Lookup, and users construct their own widths directly.
	Register(Banded{Width: 16})
}

// PrevRow is the pattern of recurrences where cell (i, j) may read the
// ENTIRE previous row (Viterbi and other forward-pass recurrences over
// chain-structured state spaces). Cells within one row are mutually
// independent, so a row's blocks run fully parallel, but every block of
// row r depends on every block of row r-1.
//
// Because a cell may read columns to its right in the previous row,
// multi-row blocks would create cyclic east/west block dependencies;
// PrevRow therefore requires one-row blocks (or a single block column).
// Precursors panics with a descriptive error otherwise, which Build
// surfaces at DAG-construction time, long before any task runs.
type PrevRow struct{}

func (PrevRow) Name() string                       { return NamePrevRow }
func (PrevRow) Class() Class                       { return Class2D1D }
func (PrevRow) CellExists(i, j int) bool           { return true }
func (PrevRow) Shape() Shape                       { return Dense }
func (PrevRow) BlockExists(g Geometry, p Pos) bool { return g.InGrid(p) }

func (pr PrevRow) checkGeometry(g Geometry) {
	if g.Block.Rows != 1 && g.Region.Rows != 1 && g.Grid.Cols != 1 {
		panic(fmt.Sprintf("dag: the %s pattern requires one-row blocks or a single block column (got block %v over region %v): cells read the whole previous row, so multi-row multi-column blocks would depend on each other cyclically", pr.Name(), g.Block, g.Region))
	}
}

func (pr PrevRow) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	pr.checkGeometry(g)
	if p.Row == 0 {
		return buf
	}
	for c := 0; c < g.Grid.Cols; c++ {
		buf = append(buf, Pos{p.Row - 1, c})
	}
	return buf
}

func (pr PrevRow) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	return pr.Precursors(g, p, buf)
}

func (PrevRow) RowOrder(r Rect, visit func(i, j0, j1 int)) { rowMajor(r, visit) }

// Banded is the wavefront pattern restricted to the diagonal band
// |i - j| <= Width: banded sequence alignment, which trades optimality for
// an O(n*Width) matrix. Blocks whose region misses the band do not exist.
type Banded struct {
	// Width is the half-width of the band.
	Width int
}

func (b Banded) Name() string { return NameBanded }
func (Banded) Class() Class   { return Class2D0D }
func (Banded) Shape() Shape   { return Convex }

func (b Banded) CellExists(i, j int) bool {
	d := i - j
	if d < 0 {
		d = -d
	}
	return d <= b.Width
}

// BlockExists: the block rect intersects the band iff the diagonal
// interval [minI-maxJ, maxI-minJ] intersects [-Width, Width].
func (b Banded) BlockExists(g Geometry, p Pos) bool {
	if !g.InGrid(p) {
		return false
	}
	r := g.Rect(p)
	minD := r.Row0 - (r.Col0 + r.Cols - 1)
	maxD := (r.Row0 + r.Rows - 1) - r.Col0
	return minD <= b.Width && maxD >= -b.Width
}

// Precursors: north, west and north-west. Unlike the full wavefront, the
// north-west edge must be direct: with a narrow band the north and west
// neighbour blocks can lie entirely outside the band while the diagonal
// neighbour still feeds real cell dependencies.
func (b Banded) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	buf = appendIf(b, g, Pos{p.Row - 1, p.Col}, buf)
	buf = appendIf(b, g, Pos{p.Row, p.Col - 1}, buf)
	buf = appendIf(b, g, Pos{p.Row - 1, p.Col - 1}, buf)
	return buf
}

func (b Banded) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	return b.Precursors(g, p, buf)
}

// DataRegion is the wavefront's; cells of it outside the band are holes.
func (Banded) DataRegion(g Geometry, p, q Pos) Rect { return edgeRegion(g, p, q) }

// RowOrder visits the rows top to bottom, each over the stretch of it
// inside the band.
func (b Banded) RowOrder(r Rect, visit func(i, j0, j1 int)) {
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		if j0, j1 := max(r.Col0, i-b.Width), min(r.Col0+r.Cols, i+b.Width+1); j0 < j1 {
			visit(i, j0, j1)
		}
	}
}
