package dp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

const bandedInf = int32(1) << 29

// BandedEdit is edit distance restricted to the diagonal band
// |i - j| <= Width: the classic O(n*w) approximation that is exact
// whenever the true distance is at most Width. It exercises the Banded
// DAG pattern, whose block grid has holes away from the diagonal.
type BandedEdit struct {
	A, B  []byte
	Width int
}

// NewBandedEdit builds the kernel.
func NewBandedEdit(a, b []byte, width int) *BandedEdit {
	return &BandedEdit{A: a, B: b, Width: width}
}

// Size returns the DP matrix extent.
func (e *BandedEdit) Size() dag.Size { return dag.Size{Rows: len(e.A), Cols: len(e.B)} }

// Pattern implements core.Kernel.
func (e *BandedEdit) Pattern() dag.Pattern { return dag.Banded{Width: e.Width} }

// Boundary implements core.Kernel: the usual edit-distance boundary for
// virtual row/column -1, and "unreachable" for cells outside the band.
func (e *BandedEdit) Boundary(i, j int) int32 {
	switch {
	case i < 0 && j < 0:
		return 0
	case i < 0:
		return int32(j) + 1
	case j < 0:
		return int32(i) + 1
	default: // inside the matrix but outside the band
		return bandedInf
	}
}

// Row implements core.Kernel, as EditDistance's does; the cells of the
// row above that lie outside the band arrive as runs of one holding
// Boundary's "unreachable".
func (e *BandedEdit) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	a, west, diag := e.A[i], v.Get(i, j0-1), v.Get(i-1, j0-1)
	rowRuns(v, i-1, j0, j0+len(out), func(j int, north []int32) {
		b, o := e.B[j:j+len(north)], out[j-j0:j-j0+len(north)]
		w, nw := west, diag
		for t, n := range north {
			sub := nw
			if a != b[t] {
				sub++
			}
			sub = min(sub, n+1, w+1, bandedInf)
			o[t] = sub
			w, nw = sub, n
		}
		west, diag = w, nw
	})
}

// Problem wraps the kernel for the runtime.
func (e *BandedEdit) Problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("bandededit-%dx%d-w%d", len(e.A), len(e.B), e.Width),
		Size:   e.Size(),
		Kernel: e,
		Codec:  matrix.BinaryCodec[int32]{},
	}
}

// Sequential is the reference implementation.
func (e *BandedEdit) Sequential() [][]int32 {
	la, lb := len(e.A), len(e.B)
	d := make([][]int32, la)
	for i := range d {
		d[i] = make([]int32, lb)
	}
	inBand := func(i, j int) bool {
		diff := i - j
		if diff < 0 {
			diff = -diff
		}
		return diff <= e.Width
	}
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return e.Boundary(i, j)
		}
		if !inBand(i, j) {
			return bandedInf
		}
		return d[i][j]
	}
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			if !inBand(i, j) {
				continue
			}
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
			if sub > bandedInf {
				sub = bandedInf
			}
			d[i][j] = sub
		}
	}
	return d
}

// Distance returns the banded edit distance from a completed matrix; it
// equals the true edit distance whenever that is at most Width, and
// saturates at Unreachable when the final cell lies outside the band
// (the sequences' length difference alone exceeds the width).
func (e *BandedEdit) Distance(d [][]int32) int32 {
	if len(e.A) == 0 {
		return int32(len(e.B))
	}
	if len(e.B) == 0 {
		return int32(len(e.A))
	}
	diff := len(e.A) - len(e.B)
	if diff < 0 {
		diff = -diff
	}
	if diff > e.Width {
		return Unreachable
	}
	return d[len(e.A)-1][len(e.B)-1]
}

// Unreachable is the distance reported when the band cannot connect the
// two sequence ends.
const Unreachable = bandedInf
