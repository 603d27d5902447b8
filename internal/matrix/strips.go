package matrix

import (
	"slices"

	"repro/internal/dag"
)

// Strips is what a compute node joins a task's bands into: a 2D/1D
// recurrence scans the rows and the columns of the block it computes, and
// such a scan crosses every shipped block of the row or column band — a
// View run per block — unless the band is one block. Join copies each band
// into a strip of its own; a strip's buffer is allocated at the first band
// of its kind, at the largest size a band can have, and reused.
type Strips[T any] struct {
	row, col bandStrip[T]
	out      []*Block[T]
}

// bandStrip is one kind of band: its buffer and the blocks the last Join
// copied into it (none: the band's blocks passed through).
type bandStrip[T any] struct {
	Block[T]
	largest int // cells in the largest band of the kind
	band    []*Block[T]
}

// NewStrips prepares the strips of a size-sized matrix's tasks whose
// blocks are at most block: a row band holds at most block.Rows ×
// size.Cols cells, a column band size.Rows × block.Cols. It allocates
// nothing.
func NewStrips[T any](block, size dag.Size) *Strips[T] {
	s := &Strips[T]{}
	s.row.largest, s.col.largest = min(block.Rows, size.Rows)*size.Cols, size.Rows*min(block.Cols, size.Cols)
	return s
}

// Join returns in with the row band of r — the blocks with r's Row0 and
// Rows — joined into one block when there are several and their columns
// are exactly adjacent, and the column band, the transpose, into another.
// A band of one block passes through uncopied, and so do the blocks of a
// band that does not tile a stretch (a region beside the whole block it
// was cut from overlaps it) and every block of no band (the wavefront's
// row, column and corner). When nothing is joined in itself comes back.
// The strips and the returned slice belong to s and stay valid until the
// next Join; in is not modified.
func (s *Strips[T]) Join(in []*Block[T], r dag.Rect) []*Block[T] {
	row, col := s.row.join(in, r, false), s.col.join(in, r, true)
	if !row && !col {
		return in
	}
	s.out = s.out[:0]
	if row {
		s.out = append(s.out, &s.row.Block)
	}
	if col {
		s.out = append(s.out, &s.col.Block)
	}
	for _, b := range in {
		if !slices.Contains(s.row.band, b) && !slices.Contains(s.col.band, b) {
			s.out = append(s.out, b)
		}
	}
	return s.out
}

// along returns where q lies along a band and across it: its columns and
// rows for a row band, the transpose for a column band (down).
func along(q dag.Rect, down bool) (lo, n, across0, across int) {
	if down {
		return q.Row0, q.Rows, q.Col0, q.Cols
	}
	return q.Col0, q.Cols, q.Row0, q.Rows
}

// join copies r's band into the strip and reports whether it did.
func (s *bandStrip[T]) join(in []*Block[T], r dag.Rect, down bool) bool {
	_, _, r0, rn := along(r, down)
	s.band = s.band[:0]
	for _, b := range in {
		if _, _, b0, bn := along(b.Rect, down); b0 == r0 && bn == rn {
			s.band = append(s.band, b)
		}
	}
	slices.SortFunc(s.band, func(x, y *Block[T]) int {
		xl, _, _, _ := along(x.Rect, down)
		yl, _, _, _ := along(y.Rect, down)
		return xl - yl
	})
	for k := 1; k < len(s.band); k++ {
		pl, pn, _, _ := along(s.band[k-1].Rect, down)
		if kl, _, _, _ := along(s.band[k].Rect, down); kl != pl+pn {
			s.band = s.band[:0] // not one stretch: it passes through
		}
	}
	if len(s.band) < 2 {
		s.band = s.band[:0]
		return false
	}
	lo, _, _, _ := along(s.band[0].Rect, down)
	hl, hn, _, _ := along(s.band[len(s.band)-1].Rect, down)
	rect := dag.Rect{Row0: r.Row0, Rows: r.Rows, Col0: lo, Cols: hl + hn - lo}
	if down {
		rect = dag.Rect{Row0: lo, Rows: hl + hn - lo, Col0: r.Col0, Cols: r.Cols}
	}
	if n := rect.Cells(); cap(s.Cells) < n {
		s.Cells = make([]T, max(s.largest, n))
	}
	s.Rect, s.Cells = rect, s.Cells[:rect.Cells()]
	for _, b := range s.band {
		s.CopyFrom(b)
	}
	return true
}
