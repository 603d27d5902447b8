package dp

import (
	"math"

	"repro/internal/matrix"
)

// wave is the scan every wavefront (2D/0D) kernel's Row is, in max form:
//
//	t[x] = max(north[x] + gap, nw[x] + (a == b[x] ? match : mismatch))
//	o[x] = max(t[x], o[x-1] + gap)
//
// with nw[x] = north[x-1], nw[0] the diagonal cell and o[-1] the west cell,
// every cell loaded and stored XOR-ed with flip (a minimizing kernel scans
// ^D: ^ reverses order and ^(x+k) = ^x-k). The portable body is this chain,
// so it is exact, int32 sums wrapping as Go's do. The AVX2 body
// (wave_amd64.s) takes prefix maxima eight cells at a time, re-associating
// the gap sums: it answers bit for bit the same where gap <= 0 and every
// north cell and the west cell, in scan form, is at least MinInt32 - 9*gap,
// so that no gap sum wraps. exact holds where a kernel's cells stay there.
type wave struct {
	match, mismatch, gap, flip int32
	exact                      bool
}

// newWave is the scan of a kernel whose cells, in scan form, are >= low.
func newWave(match, mismatch, gap, flip int32, low int64) wave {
	return wave{match, mismatch, gap, flip, gap <= 0 && low+9*int64(gap) >= math.MinInt32}
}

// row computes the segment out of row i from column j0, a = A[i], a scan
// per run of the row above, whose last cells are the next run's diagonal and
// west.
func (k wave) row(v *matrix.View[int32], a byte, b []byte, i, j0 int, out []int32) {
	west, diag, one := v.Get(i, j0-1), v.Get(i-1, j0-1), [1]int32{}
	for x := 0; x < len(out); {
		north := rowRun(v, i-1, j0+x, len(out)-x, &one)
		o := out[x : x+len(north)]
		k.scan(o, north, b[j0+x:], a, west, diag)
		west, diag, x = o[len(o)-1], north[len(north)-1], x+len(north)
	}
}

// scanGo is the portable body of scan.
func (k wave) scanGo(out, north []int32, b []byte, a byte, west, diag int32) {
	match, mismatch, gap, flip := k.match, k.mismatch, k.gap, k.flip
	o, nw, b, out := west^flip, diag^flip, b[:len(north)], out[:len(north)]
	for x, n := range north {
		n ^= flip
		s := mismatch
		if a == b[x] {
			s = match
		}
		o = max(n+gap, nw+s, o+gap)
		out[x], nw = o^flip, n
	}
}
