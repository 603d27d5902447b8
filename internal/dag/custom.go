package dag

// Custom is a user-defined DAG Pattern Model, the escape hatch the paper's
// user API provides for DP problems whose dependency structure is not
// covered by the library. Fill in the function fields; nil fields fall
// back to sensible defaults (all cells exist, data deps equal precursors,
// rows top down, each in its runs of existing cells).
//
// A Custom pattern must uphold the model invariants (every data dependency
// of a block reachable through precursor edges, each existing cell in one
// row segment); Validate checks them on a concrete geometry, in tests.
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
	// RowOrderFunc visits the existing cells of r in dependency order, a
	// row segment at a time (Pattern.RowOrder); when nil the rows go top
	// down, each as its maximal runs of existing cells left to right.
	RowOrderFunc func(r Rect, visit func(i, j0, j1 int))
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

func (c Custom) RowOrder(r Rect, visit func(i, j0, j1 int)) {
	switch {
	case c.RowOrderFunc != nil:
		c.RowOrderFunc(r, visit)
	case c.CellExistsFunc == nil:
		rowMajor(r, visit)
	default:
		for i := r.Row0; i < r.Row0+r.Rows; i++ {
			j0, end := r.Col0, r.Col0+r.Cols
			for j := j0; j <= end; j++ {
				if j == end || !c.CellExistsFunc(i, j) {
					if j0 < j {
						visit(i, j0, j)
					}
					j0 = j + 1
				}
			}
		}
	}
}
