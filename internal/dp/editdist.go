package dp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// EditDistance is Levenshtein distance: cell (i, j) is the distance
// between A[0..i] and B[0..j]. A 2D/0D (wavefront) recurrence:
//
//	D[i,j] = min(D[i-1,j] + 1, D[i,j-1] + 1, D[i-1,j-1] + [A[i] != B[j]])
//
// with virtual boundary D[-1,j] = j+1 and D[i,-1] = i+1.
type EditDistance struct {
	A, B []byte
}

// NewEditDistance builds the kernel.
func NewEditDistance(a, b []byte) *EditDistance { return &EditDistance{A: a, B: b} }

// Size returns the DP matrix extent.
func (e *EditDistance) Size() dag.Size { return dag.Size{Rows: len(e.A), Cols: len(e.B)} }

// Pattern implements core.Kernel.
func (e *EditDistance) Pattern() dag.Pattern { return dag.Wavefront{} }

// Boundary implements core.Kernel.
func (e *EditDistance) Boundary(i, j int) int32 {
	if i < 0 && j < 0 {
		return 0
	}
	if i < 0 {
		return int32(j) + 1
	}
	return int32(i) + 1
}

// Row implements core.Kernel: the wave scan of ^D under (0, -1, -1), on
// cells of at most len(A)+len(B).
func (e *EditDistance) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	newWave(0, -1, -1, -1, -int64(len(e.A)+len(e.B))-1).row(v, e.A[i], e.B, i, j0, out)
}

// Problem wraps the kernel for the runtime.
func (e *EditDistance) Problem() core.Problem[int32] {
	return problem[int32](fmt.Sprintf("editdist-%dx%d", len(e.A), len(e.B)), e.Size(), e)
}

// Sequential is the reference implementation.
func (e *EditDistance) Sequential() [][]int32 {
	la, lb := len(e.A), len(e.B)
	d := grid[int32](la, lb)
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return e.Boundary(i, j)
		}
		return d[i][j]
	}
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			sub := get(i-1, j-1)
			if e.A[i] != e.B[j] {
				sub++
			}
			d[i][j] = min(sub, get(i-1, j)+1, get(i, j-1)+1)
		}
	}
	return d
}

// Distance returns the edit distance from a completed matrix.
func (e *EditDistance) Distance(d [][]int32) int32 {
	if len(e.A) == 0 {
		return int32(len(e.B))
	}
	if len(e.B) == 0 {
		return int32(len(e.A))
	}
	return d[len(e.A)-1][len(e.B)-1]
}

// LCS is the longest-common-subsequence length, another 2D/0D wavefront
// recurrence:
//
//	L[i,j] = L[i-1,j-1] + 1                 if A[i] == B[j]
//	         max(L[i-1,j], L[i,j-1])        otherwise
type LCS struct {
	A, B []byte
}

// NewLCS builds the kernel.
func NewLCS(a, b []byte) *LCS { return &LCS{A: a, B: b} }

// Size returns the DP matrix extent.
func (l *LCS) Size() dag.Size { return dag.Size{Rows: len(l.A), Cols: len(l.B)} }

// Pattern implements core.Kernel.
func (l *LCS) Pattern() dag.Pattern { return dag.Wavefront{} }

// Boundary implements core.Kernel.
func (l *LCS) Boundary(i, j int) int32 { return 0 }

// Row implements core.Kernel: the wave scan under (1, MinInt32, 0). A
// mismatch's diagonal is no candidate, and on an LCS matrix a match's nw+1
// is at least north and west.
func (l *LCS) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	newWave(1, math.MinInt32, 0, 0, 0).row(v, l.A[i], l.B, i, j0, out)
}

// Problem wraps the kernel for the runtime.
func (l *LCS) Problem() core.Problem[int32] {
	return problem[int32](fmt.Sprintf("lcs-%dx%d", len(l.A), len(l.B)), l.Size(), l)
}

// Sequential is the reference implementation.
func (l *LCS) Sequential() [][]int32 {
	la, lb := len(l.A), len(l.B)
	d := grid[int32](la, lb)
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 0
		}
		return d[i][j]
	}
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			if l.A[i] == l.B[j] {
				d[i][j] = get(i-1, j-1) + 1
			} else {
				d[i][j] = max(get(i-1, j), get(i, j-1))
			}
		}
	}
	return d
}
