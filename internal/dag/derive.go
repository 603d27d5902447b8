package dag

import "fmt"

// FromCellDeps builds a Custom pattern from a purely cell-level
// description of a recurrence: which cells exist and which cells each cell
// reads. Block-level dependencies are derived by scanning the cells of a
// block and mapping their reads to blocks — the programmer never reasons
// about blocks at all, which is the friendliest form of the paper's
// user-defined-pattern API.
//
// cellDeps must call emit(di, dj) for every cell (di, dj) that cell (i, j)
// reads; reads outside the computed region are ignored automatically. The
// intra-block evaluation order is row-major; DeriveValidate (or
// ValidateCellOrder plus a small test) should be used to confirm the
// recurrence is row-major-compatible (cells must only read cells at
// smaller (i) or equal i and smaller j — true for most left/up-looking
// recurrences; bottom-up recurrences like Nussinov need an explicit
// CellOrderFunc instead).
func FromCellDeps(name string, exists func(i, j int) bool, cellDeps func(i, j int, emit func(di, dj int))) Custom {
	derived := func(g Geometry, p Pos, buf []Pos) []Pos {
		r := g.Rect(p)
		seen := map[Pos]bool{p: true}
		for i := r.Row0; i < r.Row0+r.Rows; i++ {
			for j := r.Col0; j < r.Col0+r.Cols; j++ {
				if exists != nil && !exists(i, j) {
					continue
				}
				cellDeps(i, j, func(di, dj int) {
					if !g.Region.Contains(di, dj) {
						return
					}
					if exists != nil && !exists(di, dj) {
						return
					}
					q := g.BlockOf(di, dj)
					if !seen[q] {
						seen[q] = true
						buf = append(buf, q)
					}
				})
			}
		}
		return buf
	}
	return Custom{
		PatternName:    name,
		CellExistsFunc: exists,
		// The derived set is exact, so topological precursors and the
		// data region coincide.
		PrecursorsFunc: derived,
		DataDepsFunc:   derived,
	}
}

// DeriveValidate checks a derived (or any) pattern on a concrete geometry:
// model invariants plus row-major compatibility of the cell reads (every
// read must target an earlier cell in row-major order, or a cell outside
// the region).
func DeriveValidate(pat Pattern, g Geometry, cellDeps func(i, j int, emit func(di, dj int))) error {
	if err := ValidateAcyclic(pat, g); err != nil {
		return err
	}
	if err := ValidateTopology(pat, g); err != nil {
		return err
	}
	if err := ValidateCellOrder(pat, g); err != nil {
		return err
	}
	if err := ValidateDataRegion(pat, g); err != nil {
		return err
	}
	if cellDeps == nil {
		return nil
	}
	reg := g.Region
	var bad error
	for i := reg.Row0; i < reg.Row0+reg.Rows && bad == nil; i++ {
		for j := reg.Col0; j < reg.Col0+reg.Cols && bad == nil; j++ {
			if !pat.CellExists(i, j) {
				continue
			}
			cellDeps(i, j, func(di, dj int) {
				if bad != nil || !reg.Contains(di, dj) || !pat.CellExists(di, dj) {
					return
				}
				if di > i || (di == i && dj >= j) {
					bad = fmt.Errorf("dag: cell (%d,%d) reads (%d,%d), which row-major order has not computed yet; provide an explicit CellOrderFunc", i, j, di, dj)
				}
			})
		}
	}
	return bad
}
