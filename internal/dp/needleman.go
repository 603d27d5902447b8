package dp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// NeedlemanWunsch is global alignment with linear gap penalties — the
// classic wavefront recurrence:
//
//	D[i,j] = max(D[i-1,j-1] + s(A[i],B[j]),
//	             D[i-1,j]   - Gap,
//	             D[i,j-1]   - Gap)
//
// with boundary D[i,-1] = -(i+1)*Gap and D[-1,j] = -(j+1)*Gap. With
// EditDistance (minimizing) it completes the pairwise-alignment family over
// the wavefront pattern.
type NeedlemanWunsch struct {
	A, B     []byte
	Match    int32
	Mismatch int32
	Gap      int32 // positive penalty per gap column
}

// NewNeedlemanWunsch builds the aligner with +1/-1 substitution scores and
// gap penalty 2.
func NewNeedlemanWunsch(a, b []byte) *NeedlemanWunsch {
	return &NeedlemanWunsch{A: a, B: b, Match: 1, Mismatch: -1, Gap: 2}
}

// Size returns the DP matrix extent.
func (nw *NeedlemanWunsch) Size() dag.Size {
	return dag.Size{Rows: len(nw.A), Cols: len(nw.B)}
}

func (nw *NeedlemanWunsch) score(i, j int) int32 {
	if nw.A[i] == nw.B[j] {
		return nw.Match
	}
	return nw.Mismatch
}

// Pattern implements core.Kernel.
func (nw *NeedlemanWunsch) Pattern() dag.Pattern { return dag.Wavefront{} }

// Boundary implements core.Kernel.
func (nw *NeedlemanWunsch) Boundary(i, j int) int32 {
	switch {
	case i < 0 && j < 0:
		return 0
	case i < 0:
		return -int32(j+1) * nw.Gap
	default:
		return -int32(i+1) * nw.Gap
	}
}

// Row implements core.Kernel: the wave scan under (Match, Mismatch, -Gap).
func (nw *NeedlemanWunsch) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	nw.wave().row(v, nw.A[i], nw.B, i, j0, out)
}

// wave is Row's scan. A cell is at least its row's boundary less Gap a
// column, so at least -(len(A)+len(B))*Gap while Gap >= 0.
func (nw *NeedlemanWunsch) wave() wave {
	return newWave(nw.Match, nw.Mismatch, -nw.Gap, 0, -int64(min(len(nw.A)+len(nw.B), math.MaxInt32))*int64(nw.Gap))
}

// Problem wraps the aligner for the runtime.
func (nw *NeedlemanWunsch) Problem() core.Problem[int32] {
	return problem[int32](fmt.Sprintf("nw-%dx%d", len(nw.A), len(nw.B)), nw.Size(), nw)
}

// Sequential is the reference implementation.
func (nw *NeedlemanWunsch) Sequential() [][]int32 {
	la, lb := len(nw.A), len(nw.B)
	d := grid[int32](la, lb)
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return nw.Boundary(i, j)
		}
		return d[i][j]
	}
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			d[i][j] = max(get(i-1, j-1)+nw.score(i, j), get(i-1, j)-nw.Gap, get(i, j-1)-nw.Gap)
		}
	}
	return d
}

// GlobalScore returns the optimal global alignment score.
func (nw *NeedlemanWunsch) GlobalScore(d [][]int32) int32 {
	return d[len(nw.A)-1][len(nw.B)-1]
}

// Traceback recovers one optimal global alignment.
func (nw *NeedlemanWunsch) Traceback(d [][]int32) Alignment {
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return nw.Boundary(i, j)
		}
		return d[i][j]
	}
	var ra, rb []byte
	i, j := len(nw.A)-1, len(nw.B)-1
	for i >= 0 || j >= 0 {
		switch {
		case i >= 0 && j >= 0 && get(i, j) == get(i-1, j-1)+nw.score(i, j):
			ra = append(ra, nw.A[i])
			rb = append(rb, nw.B[j])
			i, j = i-1, j-1
		case i >= 0 && get(i, j) == get(i-1, j)-nw.Gap:
			ra = append(ra, nw.A[i])
			rb = append(rb, '-')
			i--
		default:
			ra = append(ra, '-')
			rb = append(rb, nw.B[j])
			j--
		}
	}
	slices.Reverse(ra)
	slices.Reverse(rb)
	return Alignment{RowA: ra, RowB: rb, Score: nw.GlobalScore(d)}
}
