package dp

import "repro/internal/matrix"

// The 2D/1D kernels scan O(n) cells per cell. These helpers walk such a
// scan a run at a time (see matrix.View): the block holding the cells is
// resolved once per run and the kernel's inner loop reads a raw slice. A
// cell on the way that is not computed is visited as a run of one holding
// what Get answers for it, so a walk visits, cell for cell, exactly the
// values the per-cell reads would have returned. The slices alias live
// blocks: visit may read the cells it is handed and nothing else, and only
// until it returns.

// single returns x as a run of one in cell k of *spare, which a walk
// allocates when it first meets an uncomputed cell and reuses after (a
// literal per cell would escape through visit).
func single[T any](spare *[]T, k int, x T) []T {
	if *spare == nil {
		*spare = make([]T, 2)
	}
	(*spare)[k] = x
	return (*spare)[k : k+1 : k+1]
}

// rowRuns visits cells (i, j0) .. (i, j1-1) left to right: visit(j, cells)
// receives cell (i, j+t) as cells[t].
func rowRuns[T any](v *matrix.View[T], i, j0, j1 int, visit func(j int, cells []T)) {
	var spare []T
	for j := j0; j < j1; {
		cells := v.Row(i, j, j1-j)
		if cells == nil {
			cells = single(&spare, 0, v.Get(i, j))
		}
		visit(j, cells)
		j += len(cells)
	}
}

// colRuns visits cells (i0, j) .. (i1-1, j) top down: visit(i, cells,
// stride) receives cell (i+t, j) as cells[t*stride]; cells ends with the
// last cell of the run.
func colRuns[T any](v *matrix.View[T], j, i0, i1 int, visit func(i int, cells []T, stride int)) {
	var spare []T
	for i := i0; i < i1; {
		cells, stride, m := v.Col(i, j, i1-i)
		if m == 0 {
			cells, stride, m = single(&spare, 0, v.Get(i, j)), 1, 1
		}
		visit(i, cells, stride)
		i += m
	}
}

// splitRuns walks the split points of a triangular 2D/1D recurrence in
// lock step: for k = lo .. hi-1 it pairs cell (i, k), walking row i
// rightwards, with cell (k+d, j), walking column j downwards. visit is
// called once per stretch on which both walks stay inside their runs, with
// cell (i, k+t) as row[t] and cell (k+t+d, j) as col[t*stride] for
// t < len(row); only the walk whose run ended asks the view for another.
func splitRuns[T any](v *matrix.View[T], i, j, lo, hi, d int, visit func(k int, row, col []T, stride int)) {
	var row, col, spare []T
	stride, below := 1, 0 // below: cells of the column run not yet visited
	for k := lo; k < hi; {
		if len(row) == 0 {
			if row = v.Row(i, k, hi-k); row == nil {
				row = single(&spare, 0, v.Get(i, k))
			}
		}
		if below == 0 {
			if col, stride, below = v.Col(k+d, j, hi-k); below == 0 {
				col, stride, below = single(&spare, 1, v.Get(k+d, j)), 1, 1
			}
		}
		n := min(len(row), below)
		visit(k, row[:n], col, stride)
		k += n
		row = row[n:]
		if below -= n; below > 0 {
			col = col[n*stride:]
		}
	}
}
