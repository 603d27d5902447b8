package dag

// Built-in members of the DAG Pattern Model library. Each corresponds to a
// family of DP recurrences; the names are the identifiers used by
// Lookup and by the command-line tools.
const (
	NameWavefront  = "wavefront"
	NameRowColumn  = "rowcolumn"
	NameTriangular = "triangular"
	NameDominance  = "dominance"
	NameRowOnly    = "rowonly"
	NameChain      = "chain"
)

func init() {
	Register(Wavefront{})
	Register(RowColumn{})
	Register(Triangular{})
	Register(Dominance{})
	Register(RowOnly{})
	Register(Chain{})
}

// Wavefront is the 2D/0D pattern (Algorithm 4.1 in the paper): cell (i, j)
// reads only its west, north and north-west neighbours. Edit distance,
// Needleman-Wunsch and LCS follow it. Blocks depend on the blocks
// immediately above and to the left; the north-west block is a data
// dependency reached transitively.
type Wavefront struct{}

func (Wavefront) Name() string                       { return NameWavefront }
func (Wavefront) Class() Class                       { return Class2D0D }
func (Wavefront) CellExists(i, j int) bool           { return true }
func (Wavefront) Shape() Shape                       { return Dense }
func (Wavefront) BlockExists(g Geometry, p Pos) bool { return g.InGrid(p) }

func (w Wavefront) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	buf = appendIf(w, g, Pos{p.Row - 1, p.Col}, buf)
	buf = appendIf(w, g, Pos{p.Row, p.Col - 1}, buf)
	return buf
}

func (w Wavefront) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	buf = w.Precursors(g, p, buf)
	buf = appendIf(w, g, Pos{p.Row - 1, p.Col - 1}, buf)
	return buf
}

// DataRegion: the north block's last row, the west block's last column and
// the north-west block's corner cell.
func (Wavefront) DataRegion(g Geometry, p, q Pos) Rect { return edgeRegion(g, p, q) }

func (Wavefront) RowOrder(r Rect, visit func(i, j0, j1 int)) { rowMajor(r, visit) }

// RowColumn is the 2D/1D pattern used by Smith-Waterman with general gap
// penalties (Fig. 6 in the paper): cell (i, j) reads the whole of row i to
// its left, the whole of column j above it, and the north-west neighbour.
// Topologically a block needs only its west and north neighbours; the data
// region is the full row to the left, the full column above, and the
// north-west diagonal block.
type RowColumn struct{}

func (RowColumn) Name() string                       { return NameRowColumn }
func (RowColumn) Class() Class                       { return Class2D1D }
func (RowColumn) CellExists(i, j int) bool           { return true }
func (RowColumn) Shape() Shape                       { return Dense }
func (RowColumn) BlockExists(g Geometry, p Pos) bool { return g.InGrid(p) }

func (rc RowColumn) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	buf = appendIf(rc, g, Pos{p.Row - 1, p.Col}, buf)
	buf = appendIf(rc, g, Pos{p.Row, p.Col - 1}, buf)
	return buf
}

func (rc RowColumn) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	for c := 0; c < p.Col; c++ {
		buf = append(buf, Pos{p.Row, c})
	}
	for r := 0; r < p.Row; r++ {
		buf = append(buf, Pos{r, p.Col})
	}
	buf = appendIf(rc, g, Pos{p.Row - 1, p.Col - 1}, buf)
	return buf
}

func (RowColumn) RowOrder(r Rect, visit func(i, j0, j1 int)) { rowMajor(r, visit) }

// Triangular is the 2D/1D upper-triangular pattern of Nussinov-style
// recurrences (Fig. 5 in the paper): only cells with i <= j exist; cell
// (i, j) reads cell (i+1, j), cell (i, j-1), cell (i+1, j-1) and the row
// segment F[i, k] / column segment F[k, j] for i < k < j. Blocks on the
// main block diagonal have no precursors (the recurrence's base case); a
// block depends directly on its west and south neighbours.
type Triangular struct{}

func (Triangular) Name() string             { return NameTriangular }
func (Triangular) Class() Class             { return Class2D1D }
func (Triangular) CellExists(i, j int) bool { return i <= j }
func (Triangular) Shape() Shape             { return Convex }

// BlockExists: the block's region intersects {i <= j} iff its smallest row
// index is <= its largest column index.
func (t Triangular) BlockExists(g Geometry, p Pos) bool {
	if !g.InGrid(p) {
		return false
	}
	r := g.Rect(p)
	return r.Row0 <= r.Col0+r.Cols-1
}

func (t Triangular) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	buf = appendIf(t, g, Pos{p.Row, p.Col - 1}, buf)
	buf = appendIf(t, g, Pos{p.Row + 1, p.Col}, buf)
	return buf
}

func (t Triangular) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	for c := p.Col - 1; c >= 0; c-- {
		buf = appendIf(t, g, Pos{p.Row, c}, buf)
	}
	for r := p.Row + 1; r < g.Grid.Rows; r++ {
		buf = appendIf(t, g, Pos{r, p.Col}, buf)
	}
	buf = appendIf(t, g, Pos{p.Row + 1, p.Col - 1}, buf)
	return buf
}

// RowOrder visits rows bottom-up, each from the diagonal rightwards, so
// that (i+1, *) and (i, j-1) precede (i, j); cells below the diagonal are
// skipped.
func (Triangular) RowOrder(r Rect, visit func(i, j0, j1 int)) {
	for i := r.Row0 + r.Rows - 1; i >= r.Row0; i-- {
		if j0, j1 := max(r.Col0, i), r.Col0+r.Cols; j0 < j1 {
			visit(i, j0, j1)
		}
	}
}

// Dominance is the 2D/2D pattern (Algorithm 4.3 in the paper): cell (i, j)
// reads every cell it dominates, i.e. all (i', j') with i' < i and j' < j.
// Topologically the west and north neighbours suffice; the data region is
// the full dominated block rectangle.
type Dominance struct{}

func (Dominance) Name() string                       { return NameDominance }
func (Dominance) Class() Class                       { return Class2D2D }
func (Dominance) CellExists(i, j int) bool           { return true }
func (Dominance) Shape() Shape                       { return Dense }
func (Dominance) BlockExists(g Geometry, p Pos) bool { return g.InGrid(p) }

func (d Dominance) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	buf = appendIf(d, g, Pos{p.Row - 1, p.Col}, buf)
	buf = appendIf(d, g, Pos{p.Row, p.Col - 1}, buf)
	return buf
}

func (d Dominance) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	for r := 0; r <= p.Row; r++ {
		for c := 0; c <= p.Col; c++ {
			if r == p.Row && c == p.Col {
				continue
			}
			buf = append(buf, Pos{r, c})
		}
	}
	return buf
}

func (Dominance) RowOrder(r Rect, visit func(i, j0, j1 int)) { rowMajor(r, visit) }

// RowOnly is the pattern of recurrences where cell (i, j) reads arbitrary
// cells of row i-1 at column <= j (0/1 knapsack, Viterbi with
// left-to-right transitions). With one-row blocks, every block of the
// previous row up to the same column is both a topological precursor and a
// data dependency and block rows are fully parallel. With multi-row blocks
// the read of row i-1 can land in the block to the left of the same block
// row (row i-1 lives inside the block), so same-row west edges join the
// dependency structure.
type RowOnly struct{}

func (RowOnly) Name() string                       { return NameRowOnly }
func (RowOnly) Class() Class                       { return Class2D1D }
func (RowOnly) CellExists(i, j int) bool           { return true }
func (RowOnly) Shape() Shape                       { return Dense }
func (RowOnly) BlockExists(g Geometry, p Pos) bool { return g.InGrid(p) }

func (ro RowOnly) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	if g.Block.Rows == 1 {
		// Pure row-to-row dependence: all previous-row blocks at
		// column <= Col.
		if p.Row == 0 {
			return buf
		}
		for c := 0; c <= p.Col; c++ {
			buf = append(buf, Pos{p.Row - 1, c})
		}
		return buf
	}
	buf = appendIf(ro, g, Pos{p.Row, p.Col - 1}, buf)
	buf = appendIf(ro, g, Pos{p.Row - 1, p.Col}, buf)
	return buf
}

func (ro RowOnly) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	if g.Block.Rows == 1 {
		return ro.Precursors(g, p, buf)
	}
	for c := 0; c < p.Col; c++ {
		buf = append(buf, Pos{p.Row, c})
	}
	if p.Row > 0 {
		for c := 0; c <= p.Col; c++ {
			buf = append(buf, Pos{p.Row - 1, c})
		}
	}
	return buf
}

func (RowOnly) RowOrder(r Rect, visit func(i, j0, j1 int)) { rowMajor(r, visit) }

// Chain is the 1D pattern: a single row of cells, each reading only its
// left neighbour. It degenerates the runtime to a pipeline and exists
// mostly to exercise edge cases (grid height 1).
type Chain struct{}

func (Chain) Name() string             { return NameChain }
func (Chain) Class() Class             { return Class1D0D }
func (Chain) CellExists(i, j int) bool { return i == 0 }
func (Chain) Shape() Shape             { return Convex }
func (c Chain) BlockExists(g Geometry, p Pos) bool {
	return g.InGrid(p) && g.Rect(p).Row0 == 0
}

func (c Chain) Precursors(g Geometry, p Pos, buf []Pos) []Pos {
	buf = appendIf(c, g, Pos{p.Row, p.Col - 1}, buf)
	return buf
}

func (c Chain) DataDeps(g Geometry, p Pos, buf []Pos) []Pos {
	return c.Precursors(g, p, buf)
}

func (Chain) RowOrder(r Rect, visit func(i, j0, j1 int)) {
	if r.Row0 == 0 {
		visit(0, r.Col0, r.Col0+r.Cols)
	}
}
