package dp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// GotohCell is the three-matrix state of affine-gap alignment: M is the
// best score ending in a match/mismatch, E ending in a gap in A (read
// horizontally), F ending in a gap in B. Struct cells ride the gob codec,
// demonstrating non-numeric cell types end to end.
type GotohCell struct {
	M, E, F int32
}

// Best returns the cell's overall best score.
func (c GotohCell) Best() int32 {
	best := c.M
	if c.E > best {
		best = c.E
	}
	if c.F > best {
		best = c.F
	}
	return best
}

const gotohNegInf = int32(-1) << 28

// Gotoh is global alignment with affine gap penalties (open + extend),
// computed with Gotoh's three-matrix recurrence:
//
//	M[i,j] = s(A[i],B[j]) + max(M[i-1,j-1], E[i-1,j-1], F[i-1,j-1])
//	E[i,j] = max(M[i,j-1] - Open, E[i,j-1] - Extend)
//	F[i,j] = max(M[i-1,j] - Open, F[i-1,j] - Extend)
//
// Every cell reads only its west, north and north-west neighbours, so the
// pattern is the plain wavefront even though the cell state is composite —
// the contrast with SWGG's general gaps (which force the 2D/1D row-column
// pattern) is exactly the trade-off discussed in the paper's related work.
type Gotoh struct {
	A, B     []byte
	Match    int32
	Mismatch int32
	Open     int32
	Extend   int32
}

// NewGotoh builds the aligner with +2/-1 substitution scores and a 3+1k
// affine gap.
func NewGotoh(a, b []byte) *Gotoh {
	return &Gotoh{A: a, B: b, Match: 2, Mismatch: -1, Open: 3, Extend: 1}
}

// Size returns the DP matrix extent.
func (g *Gotoh) Size() dag.Size { return dag.Size{Rows: len(g.A), Cols: len(g.B)} }

func (g *Gotoh) score(i, j int) int32 {
	if g.A[i] == g.B[j] {
		return g.Match
	}
	return g.Mismatch
}

// Pattern implements core.Kernel.
func (g *Gotoh) Pattern() dag.Pattern { return dag.Wavefront{} }

// Boundary implements core.Kernel: global alignment boundary conditions.
// Virtual row -1 / column -1 carry the cost of an all-gap prefix.
func (g *Gotoh) Boundary(i, j int) GotohCell {
	switch {
	case i < 0 && j < 0:
		return GotohCell{M: 0, E: gotohNegInf, F: gotohNegInf}
	case i < 0:
		// Row -1, column j: B[0..j] aligned against nothing is one gap
		// run of j+1 columns.
		return GotohCell{M: gotohNegInf, E: -g.Open - g.Extend*int32(j+1), F: gotohNegInf}
	default: // j < 0
		return GotohCell{M: gotohNegInf, E: gotohNegInf, F: -g.Open - g.Extend*int32(i+1)}
	}
}

// Row implements core.Kernel: the row above is walked by runs, the west
// and north-west cells ride along.
func (g *Gotoh) Row(v *matrix.View[GotohCell], i, j0 int, out []GotohCell) {
	w, nw := v.Get(i, j0-1), v.Get(i-1, j0-1)
	rowRuns(v, i-1, j0, j0+len(out), func(j int, north []GotohCell) {
		for t, n := range north {
			w = GotohCell{
				M: g.score(i, j+t) + max3(nw.M, nw.E, nw.F),
				E: maxi32(w.M-g.Open-g.Extend, w.E-g.Extend),
				F: maxi32(n.M-g.Open-g.Extend, n.F-g.Extend),
			}
			out[j-j0+t], nw = w, n
		}
	})
}

func maxi32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func max3(a, b, c int32) int32 { return maxi32(a, maxi32(b, c)) }

// Problem wraps the aligner for the runtime (gob codec: struct cells).
func (g *Gotoh) Problem() core.Problem[GotohCell] {
	return core.Problem[GotohCell]{
		Name:   fmt.Sprintf("gotoh-%dx%d", len(g.A), len(g.B)),
		Size:   g.Size(),
		Kernel: g,
		Codec:  matrix.GobCodec[GotohCell]{},
	}
}

// Sequential is the reference implementation.
func (g *Gotoh) Sequential() [][]GotohCell {
	la, lb := len(g.A), len(g.B)
	m := make([][]GotohCell, la)
	for i := range m {
		m[i] = make([]GotohCell, lb)
	}
	get := func(i, j int) GotohCell {
		if i < 0 || j < 0 {
			return g.Boundary(i, j)
		}
		return m[i][j]
	}
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			nw, w, n := get(i-1, j-1), get(i, j-1), get(i-1, j)
			m[i][j] = GotohCell{
				M: g.score(i, j) + max3(nw.M, nw.E, nw.F),
				E: maxi32(w.M-g.Open-g.Extend, w.E-g.Extend),
				F: maxi32(n.M-g.Open-g.Extend, n.F-g.Extend),
			}
		}
	}
	return m
}

// GlobalScore returns the optimal global alignment score from a completed
// matrix.
func (g *Gotoh) GlobalScore(m [][]GotohCell) int32 {
	return m[len(g.A)-1][len(g.B)-1].Best()
}
