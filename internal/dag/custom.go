package dag

// Custom is a user-defined DAG Pattern Model, the escape hatch the paper's
// user API provides for DP problems whose dependency structure is not
// covered by the library. Fill in the function fields; nil fields fall
// back to sensible defaults (all cells exist, data deps equal precursors,
// row-major cell order).
//
// A Custom pattern must uphold the model invariant that every data
// dependency of a block is reachable from the block through precursor
// edges; ValidateTopology from this package checks it on a concrete
// geometry and should be run in the user's tests.
type Custom struct {
	// PatternName identifies the pattern; required, must be unique if
	// the pattern is registered in the library.
	PatternName string
	// PatternClass is the optional tD/eD classification label.
	PatternClass Class
	// CellExistsFunc reports whether cell (i, j) is computed.
	CellExistsFunc func(i, j int) bool
	// PrecursorsFunc appends the direct topological precursors of block
	// p in geometry g.
	PrecursorsFunc func(g Geometry, p Pos, buf []Pos) []Pos
	// DataDepsFunc appends the data-dependency blocks of p; when nil the
	// precursor set is used.
	DataDepsFunc func(g Geometry, p Pos, buf []Pos) []Pos
	// CellOrderFunc visits the cells of r in dependency order; when nil
	// existing cells are visited row-major.
	CellOrderFunc func(r Rect, visit func(i, j int))
}

var _ Pattern = Custom{}

func (c Custom) Name() string { return c.PatternName }

func (c Custom) Class() Class {
	if c.PatternClass == "" {
		return Class("custom")
	}
	return c.PatternClass
}

// Shape: without a CellExistsFunc every cell is computed; with one nothing
// is known about where the holes are.
func (c Custom) Shape() Shape {
	if c.CellExistsFunc == nil {
		return Dense
	}
	return Sparse
}

func (c Custom) CellExists(i, j int) bool {
	if c.CellExistsFunc == nil {
		return true
	}
	return c.CellExistsFunc(i, j)
}

func (c Custom) BlockExists(g Geometry, p Pos) bool {
	if !g.InGrid(p) {
		return false
	}
	if c.CellExistsFunc == nil {
		return true
	}
	r := g.Rect(p)
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		for j := r.Col0; j < r.Col0+r.Cols; j++ {
			if c.CellExistsFunc(i, j) {
				return true
			}
		}
	}
	return false
}

func (c Custom) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	if c.PrecursorsFunc == nil {
		return buf
	}
	return c.PrecursorsFunc(g, p, buf)
}

func (c Custom) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	if c.DataDepsFunc != nil {
		return c.DataDepsFunc(g, p, buf)
	}
	return c.Precursors(g, p, buf)
}

func (c Custom) CellOrder(r Rect, visit func(i, j int)) {
	if c.CellOrderFunc != nil {
		c.CellOrderFunc(r, visit)
		return
	}
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		for j := r.Col0; j < r.Col0+r.Cols; j++ {
			if c.CellExists(i, j) {
				visit(i, j)
			}
		}
	}
}
