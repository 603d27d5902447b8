package dp

import (
	"fmt"

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

// Row implements core.Kernel: the row above is walked by runs and the
// west and north-west cells ride along in locals, so a cell costs what it
// costs Sequential() plus its share of one run request.
func (e *EditDistance) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	a, west, diag := e.A[i], v.Get(i, j0-1), v.Get(i-1, j0-1)
	rowRuns(v, i-1, j0, j0+len(out), func(j int, north []int32) {
		b, o := e.B[j:j+len(north)], out[j-j0:j-j0+len(north)]
		w, nw := west, diag
		for t, n := range north {
			sub := nw
			if a != b[t] {
				sub++
			}
			if del := n + 1; del < sub {
				sub = del
			}
			if ins := w + 1; ins < sub {
				sub = ins
			}
			o[t] = sub
			w, nw = sub, n
		}
		west, diag = w, nw
	})
}

// Problem wraps the kernel for the runtime.
func (e *EditDistance) Problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("editdist-%dx%d", len(e.A), len(e.B)),
		Size:   e.Size(),
		Kernel: e,
		Codec:  matrix.BinaryCodec[int32]{},
	}
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
			if del := get(i-1, j) + 1; del < sub {
				sub = del
			}
			if ins := get(i, j-1) + 1; ins < sub {
				sub = ins
			}
			d[i][j] = sub
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

// Row implements core.Kernel, as EditDistance's does.
func (l *LCS) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	a, west, diag := l.A[i], v.Get(i, j0-1), v.Get(i-1, j0-1)
	rowRuns(v, i-1, j0, j0+len(out), func(j int, north []int32) {
		b, o := l.B[j:j+len(north)], out[j-j0:j-j0+len(north)]
		w, nw := west, diag
		for t, n := range north {
			c := max(n, w)
			if a == b[t] {
				c = nw + 1
			}
			o[t] = c
			w, nw = c, n
		}
		west, diag = w, nw
	})
}

// Problem wraps the kernel for the runtime.
func (l *LCS) Problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("lcs-%dx%d", len(l.A), len(l.B)),
		Size:   l.Size(),
		Kernel: l,
		Codec:  matrix.BinaryCodec[int32]{},
	}
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
				continue
			}
			a, b := get(i-1, j), get(i, j-1)
			if a > b {
				d[i][j] = a
			} else {
				d[i][j] = b
			}
		}
	}
	return d
}
