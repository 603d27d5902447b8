package matrix

import (
	"fmt"

	"repro/internal/dag"
)

// View is the read/write window a DP kernel sees while computing one
// sub-task: the cells of its window (Window), written to the output block.
// The output block is a scratch block the size of the window, which the
// thread level copies into the task's block once the sub-task is accepted,
// or — after SetOutput — the task's block itself, computed in place. A read
// of cell (i, j) resolves
//
//   - to the output block when it holds the cell (cells computed earlier in
//     the same sub-task, or in place also those of sub-tasks before it);
//   - else to the input block that holds it: the shared block of the running
//     processor-level task (cells of sibling sub-tasks, complete by DAG
//     order) or a shipped block, which may be a region of a block of the
//     matrix (dag.DataRegion) or a strip that joins a band of them (Strips).
//     Blocks lie inside the matrix; input blocks that overlap hold
//     identical cells there (a region beside the whole block it was cut
//     from) and the first in the list answers; the output block may overlap
//     an input and then shadows it;
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
// Get reads one cell. Row and Col hand out a run — consecutive cells of one
// row or column as a slice aliasing the block's storage — so a recurrence
// that scans O(n) cells resolves a block once per run and loops over a raw
// slice. A run contains exactly the cells Get would have read from that
// block: it ends at the block's edge, where a scratch output block starts
// to shadow an input, and before the first hole. Computed in place, a row
// of the task's block is one run, and a strip makes its band one.
//
// View is not synchronized and runs alias live blocks: sibling sub-tasks
// may still be writing other cells of the shared block. The DAG schedule
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
	// out is the writable block of the running sub-task, win the cells
	// it computes: all of out unless the view computes in place.
	out     *Block[T]
	win     dag.Rect
	inPlace bool
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

// NewView builds a view for a sub-task of a size-sized matrix computed
// under pattern pat: writes go to out, a scratch block whose cells are the
// window, reads resolve against out, the blocks in and boundary as
// described on View.
func NewView[T any](out *Block[T], in []*Block[T], pat dag.Pattern, size dag.Size, boundary func(i, j int) T) *View[T] {
	v := &View[T]{size: size, boundary: boundary, out: out, win: out.Rect}
	if shape := dag.ShapeOf(pat); shape != dag.Dense {
		v.pat, v.convex = pat, shape == dag.Convex
		v.outHoles = v.mayHoldHole(out.Rect)
	}
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
	b, m := v.run(i, j, n, false)
	if m == 0 {
		return nil
	}
	k := b.index(i, j)
	return b.Cells[k : k+m : k+m]
}

// Col returns the m <= n cells (i, j), (i+1, j), ... as a strided slice:
// cell (i+t, j) is cells[t*stride] for t < m, and cells ends with the last
// of them. Otherwise as Row; m is 0 when cell (i, j) is not computed.
func (v *View[T]) Col(i, j, n int) (cells []T, stride, m int) {
	b, m := v.run(i, j, n, true)
	if m == 0 {
		return nil, 0, 0
	}
	k := b.index(i, j)
	end := k + (m-1)*b.Rect.Cols + 1
	return b.Cells[k:end:end], b.Rect.Cols, m
}

// run resolves cell (i, j) the way Get does and returns the block it reads
// from and the length of the run of at most n cells starting there,
// rightwards or down: 0 when the cell is not computed.
func (v *View[T]) run(i, j, n int, down bool) (*Block[T], int) {
	if n < 1 {
		return nil, 0
	}
	b, holes := v.out, v.outHoles
	if !b.Rect.Contains(i, j) {
		if b, holes = v.input(i, j); b == nil {
			return nil, 0
		}
		// The output block shadows an input it overlaps (the scratch
		// block of a sub-task lies inside the shared block of its
		// processor-level task, which holds stale zeros there until the
		// sub-task is accepted): stop where it starts.
		o := v.out.Rect
		if down {
			if j >= o.Col0 && j < o.Col0+o.Cols && i < o.Row0 {
				n = min(n, o.Row0-i)
			}
		} else if i >= o.Row0 && i < o.Row0+o.Rows && j < o.Col0 {
			n = min(n, o.Col0-j)
		}
	}
	if down {
		n = min(n, b.Rect.Row0+b.Rect.Rows-i)
	} else {
		n = min(n, b.Rect.Col0+b.Rect.Cols-j)
	}
	if holes {
		n = v.untilHole(i, j, n, down)
	}
	return b, n
}

// untilHole clips a run of n cells inside one block to the cells before
// its first hole.
func (v *View[T]) untilHole(i, j, n int, down bool) int {
	di, dj := 0, 1
	if down {
		di, dj = 1, 0
	}
	if !v.pat.CellExists(i, j) {
		return 0
	}
	if n == 1 || v.convex && v.pat.CellExists(i+di*(n-1), j+dj*(n-1)) {
		return n
	}
	for k := 1; k < n; k++ {
		if !v.pat.CellExists(i+di*k, j+dj*k) {
			return k
		}
	}
	return n
}

// SetOutput has the view compute in place from now on: writes go to out,
// a zeroed block of the task, and reads resolve against all of it first.
// Retarget then moves the window over out and leaves its cells alone.
// Only a view that nothing else computes beside may: a duplicate
// execution of a sub-task would write the cells its original is reading.
func (v *View[T]) SetOutput(out *Block[T]) {
	v.out, v.win, v.inPlace = out, out.Rect, true
	v.outHoles = v.pat != nil && v.mayHoldHole(out.Rect)
}

// Retarget re-aims the view at the next sub-task: its window is now r. In
// place r must lie inside the output block. Otherwise the scratch output
// block now covers r, which must have no more cells than the block the
// view was built with; only an r that may hold a hole is zeroed — a hole's
// zero must reach the task's block when the scratch is copied there; the
// pattern's row order (dag.RowOrder) writes every cell of a hole-free r, so
// its stale cells are all overwritten.
func (v *View[T]) Retarget(r dag.Rect) {
	if v.win = r; v.inPlace {
		return
	}
	v.out.Rect, v.out.Cells = r, v.out.Cells[:r.Cells()]
	if v.outHoles = v.pat != nil && v.mayHoldHole(r); v.outHoles {
		clear(v.out.Cells)
	}
}

// Window returns the cells the running sub-task computes.
func (v *View[T]) Window() dag.Rect { return v.win }

// Set writes v into cell (i, j) of the output block.
func (v *View[T]) Set(i, j int, val T) { v.out.Set(i, j, val) }

// Out returns the output block of the view.
func (v *View[T]) Out() *Block[T] { return v.out }
