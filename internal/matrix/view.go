package matrix

import (
	"fmt"

	"repro/internal/dag"
)

// View is the read/write window a DP kernel sees while computing one
// sub-task: the cells of its window (Window), written in place into the
// output block, the running processor-level task's block, which the window
// lies in. A read of cell (i, j) resolves
//
//   - to the output block when it holds the cell (cells computed earlier in
//     the same sub-task, or by sibling sub-tasks before it, complete by DAG
//     order);
//   - else to the input block that holds it: a shipped block, which may be
//     a region of a block of the matrix (dag.DataRegion) or a strip that
//     joins a band of them (Strips). Blocks lie inside the matrix; input
//     blocks that overlap hold identical cells there (a region beside the
//     whole block it was cut from) and the first in the list answers;
//   - but to the kernel's boundary function when the pattern does not
//     compute the cell, even inside a block: the lower triangle of a
//     Triangular diagonal block holds zeros, not boundary values. CellExists
//     is asked only for a block that can hold such a cell — never under a
//     Dense pattern, and under a Convex one only when a corner of the block
//     is a hole;
//   - when no block holds the cell, to the boundary function if the cell is
//     outside the matrix or a hole, and otherwise to a panic: a computed
//     cell nobody shipped means the pattern's DataDeps or DataRegion
//     under-specify the data region, which the tests are designed to catch.
//
// Get reads one cell. Row hands out a run — consecutive cells of one row
// as a slice aliasing the block's storage — and Band the same segment of
// consecutive rows, so a recurrence that scans O(n) cells resolves a block
// once per run or band and loops over raw slices. Both contain exactly the
// cells Get would have read from that block: they end at the block's edge
// and before the first hole. A row of the task's block is one run, and a
// strip makes its band one.
//
// View is not synchronized and runs alias live blocks: sibling sub-tasks
// may still be writing other cells of the output block. The DAG schedule
// guarantees only that the cells a recurrence depends on were written
// before the kernel started (happens-before is established by the
// scheduler's completion handshake), so a kernel reads the cells it asked
// for and nothing else, and never writes through a run.
type View[T any] struct {
	// pat answers cell existence; nil for Dense patterns, whose existence
	// is the bounds test.
	pat dag.Pattern
	// convex: the pattern's holes leave every row and column contiguous.
	convex bool
	// size is the extent of the whole DP matrix.
	size dag.Size
	// boundary supplies values for reads of cells that do not exist.
	boundary func(i, j int) T
	// out is the block of the running task, win the cells of it the
	// running sub-task computes.
	out *Block[T]
	win dag.Rect
	// in are the readable blocks.
	in []*Block[T]
	// outHoles and inHoles[k] say whether out and in[k] may hold a cell
	// the pattern does not compute.
	outHoles bool
	inHoles  []bool
	// last caches the input block of the previous read outside out.
	last      *Block[T]
	lastHoles bool
}

// NewView builds a view for the sub-tasks of a size-sized matrix's task
// computed under pattern pat: writes go to out, the task's block, whose
// cells are the window until Retarget, and reads resolve against out, the
// blocks in and boundary as described on View.
func NewView[T any](out *Block[T], in []*Block[T], pat dag.Pattern, size dag.Size, boundary func(i, j int) T) *View[T] {
	v := &View[T]{size: size, boundary: boundary}
	if shape := dag.ShapeOf(pat); shape != dag.Dense {
		v.pat, v.convex = pat, shape == dag.Convex
	}
	v.SetOutput(out)
	v.SetInputs(in)
	return v
}

// SetInputs re-aims the view at another processor-level task's readable
// blocks, in place: a view kept from one task to the next allocates
// nothing here once it has seen as many inputs.
func (v *View[T]) SetInputs(in []*Block[T]) {
	v.in, v.last, v.inHoles = in, nil, v.inHoles[:0]
	if v.pat == nil {
		return
	}
	for _, b := range in {
		v.inHoles = append(v.inHoles, v.mayHoldHole(b.Rect))
	}
}

// mayHoldHole: under a Convex pattern a block whose four corner cells are
// computed has no hole (its top and bottom rows are contiguous, and so is
// every column between them); otherwise any cell may be one.
func (v *View[T]) mayHoldHole(r dag.Rect) bool {
	i1, j1 := r.Row0+r.Rows-1, r.Col0+r.Cols-1
	return !v.convex || !(v.pat.CellExists(r.Row0, r.Col0) && v.pat.CellExists(r.Row0, j1) &&
		v.pat.CellExists(i1, r.Col0) && v.pat.CellExists(i1, j1))
}

// Get returns the value of cell (i, j).
func (v *View[T]) Get(i, j int) T {
	b, holes := v.out, v.outHoles
	if !b.Rect.Contains(i, j) {
		if b, holes = v.input(i, j); b == nil {
			return v.boundary(i, j)
		}
	}
	if holes && !v.pat.CellExists(i, j) {
		return v.boundary(i, j)
	}
	return b.At(i, j)
}

// at resolves cell (i, j) as Get does: to the block holding it and whether
// that block may hold holes, or to nil when the cell is not computed.
func (v *View[T]) at(i, j int) (*Block[T], bool) {
	b, holes := v.out, v.outHoles
	if !b.Rect.Contains(i, j) {
		if b, holes = v.input(i, j); b == nil {
			return nil, false
		}
	}
	if holes && !v.pat.CellExists(i, j) {
		return nil, false
	}
	return b, holes
}

// input returns the input block holding cell (i, j), which is not in the
// output block, and whether the block may hold holes. When no block holds
// the cell it must be a boundary read (nil): a computed cell inside the
// matrix was not shipped, and input panics.
func (v *View[T]) input(i, j int) (*Block[T], bool) {
	if b := v.last; b != nil && b.Rect.Contains(i, j) {
		return b, v.lastHoles
	}
	for k, b := range v.in {
		if b.Rect.Contains(i, j) {
			v.last, v.lastHoles = b, v.pat != nil && v.inHoles[k]
			return b, v.lastHoles
		}
	}
	if i >= 0 && j >= 0 && i < v.size.Rows && j < v.size.Cols && (v.pat == nil || v.pat.CellExists(i, j)) {
		panic(fmt.Sprintf("matrix: read of cell (%d,%d) outside the sub-task data region (pattern DataDeps under-specified?)", i, j))
	}
	return nil, false
}

// Row returns cells (i, j), (i, j+1), ... as a slice of at most n cells
// that aliases the block holding them; see View for where a run ends. It
// returns nil when cell (i, j) is not computed (Get answers its boundary
// value) and panics like Get when the cell was not shipped.
func (v *View[T]) Row(i, j, n int) []T {
	if n < 1 {
		return nil
	}
	b, holes := v.at(i, j)
	if b == nil {
		return nil
	}
	n = min(n, b.Rect.Col0+b.Rect.Cols-j)
	if holes {
		n = v.before(n, func(t int) bool { return v.pat.CellExists(i, j+t) })
	}
	k := b.index(i, j)
	return b.Cells[k : k+n : k+n]
}

// Band returns m <= n rows of the w-cell segment starting at (i, j), all in
// one block: row t is cells[t*stride : t*stride+w], and cells ends with the
// last of them; a column run is the case w = 1. See View for where a band
// ends. m is 0 when the first row's segment leaves its block or holds a
// hole; Band panics like Get when cell (i, j) was not shipped.
func (v *View[T]) Band(i, j, w, n int) (cells []T, stride, m int) {
	if w < 1 || n < 1 {
		return nil, 0, 0
	}
	b, holes := v.at(i, j)
	if b == nil || j+w > b.Rect.Col0+b.Rect.Cols {
		return nil, 0, 0
	}
	m = min(n, b.Rect.Row0+b.Rect.Rows-i)
	if holes { // rows before the first that holds a hole among its w cells
		m = v.before(m, func(k int) bool { return v.before(w, func(t int) bool { return v.pat.CellExists(i+k, j+t) }) == w })
	}
	if m < 1 {
		return nil, 0, 0
	}
	k := b.index(i, j)
	end := k + (m-1)*b.Rect.Cols + w
	return b.Cells[k:end:end], b.Rect.Cols, m
}

// before returns at how many steps 0 .. n-1 ok holds before it first fails;
// under a Convex pattern, ok at the first and the last step holds between.
func (v *View[T]) before(n int, ok func(k int) bool) int {
	if v.convex && ok(0) && ok(n-1) {
		return n
	}
	for k := 0; k < n; k++ {
		if !ok(k) {
			return k
		}
	}
	return n
}

// SetOutput re-aims the view at another task's block, out, zeroed: its
// holes are never written, and read as the boundary. The window is all of
// out until Retarget.
func (v *View[T]) SetOutput(out *Block[T]) {
	v.out, v.win = out, out.Rect
	v.outHoles = v.pat != nil && v.mayHoldHole(out.Rect)
}

// Retarget re-aims the view at the next sub-task of the task: its window is
// now r, which lies inside the output block, and the block's cells are left
// alone. Two views of one task may compute side by side only in windows the
// DAG keeps apart: each reads what the other wrote only once it was
// accepted.
func (v *View[T]) Retarget(r dag.Rect) { v.win = r }

// Window returns the cells the running sub-task computes.
func (v *View[T]) Window() dag.Rect { return v.win }

// Out returns the output block of the view.
func (v *View[T]) Out() *Block[T] { return v.out }
