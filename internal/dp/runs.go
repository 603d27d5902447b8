package dp

import "repro/internal/matrix"

// The 2D/1D kernels scan O(n) cells per cell. These helpers hand such a scan
// over a run or a band at a time (see matrix.View): the block holding the
// cells is resolved once per run or band, and the kernel's inner loop reads
// raw slices. A cell on the way that is not computed comes as a run of one
// holding what Get answers for it, so a scan reads, cell for cell, exactly
// the values the per-cell reads would have returned. The slices alias live
// blocks: a kernel reads the cells it is handed and nothing else, and only
// until it asks for the next run or band.

// rowRun returns cells (i, j), (i, j+1), ... as a run of at most n >= 1
// cells: the view's, or when cell (i, j) is not computed the one cell Get
// answers there, in *one.
func rowRun[T any](v *matrix.View[T], i, j, n int, one *[1]T) []T {
	if cells := v.Row(i, j, n); cells != nil {
		return cells
	}
	one[0] = v.Get(i, j)
	return one[:]
}

// rows walks a column of row segments, cells (r, j) .. (r, j+w-1) for rows
// r from some first row down to end-1, a band (matrix.View.Band) at a time:
// the walk asks the view once per block it crosses. A row no band starts at
// — its segment leaves its block or holds a hole — is a band of one, read
// cell by cell into a spare slice allocated the first time.
type rows[T any] struct {
	v            *matrix.View[T]
	j, w, end    int
	r0, r1       int // the band holds rows r0 .. r1-1
	cells, spare []T
	stride       int
}

func newRows[T any](v *matrix.View[T], j, w, end int) rows[T] {
	return rows[T]{v: v, j: j, w: w, end: end}
}

// band returns the m rows r, r+1, ... that the band holding row r holds:
// row r+x is cells[x*stride : x*stride+w]. Rows are asked for top down, and
// the cells are valid until the next call.
func (s *rows[T]) band(r int) (cells []T, stride, m int) {
	if r >= s.r1 || r < s.r0 {
		s.fetch(r)
	}
	return s.cells[(r-s.r0)*s.stride:], s.stride, s.r1 - r
}

// split hands a triangular kernel the split points k, k+1, ... left of the
// walk's segment of row i that one run and one band hold: left[x] is cell
// (i, k+x), and row k+1+x of the segment is cells[x*stride:].
func (s *rows[T]) split(i, k int, one *[1]T) (left, cells []T, stride int) {
	left = rowRun(s.v, i, k, s.j-k, one)
	cells, stride, m := s.band(k + 1)
	return left[:min(m, len(left))], cells, stride
}

func (s *rows[T]) fetch(r int) {
	cells, stride, m := s.v.Band(r, s.j, s.w, s.end-r)
	if m == 0 {
		if s.spare == nil {
			s.spare = make([]T, s.w)
		}
		for t := range s.spare {
			s.spare[t] = s.v.Get(r, s.j+t)
		}
		cells, stride, m = s.spare, s.w, 1
	}
	s.cells, s.stride, s.r0, s.r1 = cells, stride, r, r+m
}
