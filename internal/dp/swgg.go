package dp

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// SWGG is the Smith-Waterman General Gap algorithm (Waterman-Smith-Beyer):
// local sequence alignment with an arbitrary affine-in-length gap penalty
// w(k) = GapOpen + GapExt*k. Matrix cell (i, j) holds the best score of a
// local alignment ending at A[i], B[j]:
//
//	H[i,j] = max(0,
//	             H[i-1,j-1] + s(A[i], B[j]),
//	             max_{1<=k<=j} H[i,j-k] - w(k),
//	             max_{1<=k<=i} H[i-k,j] - w(k))
//
// Each cell reads its whole row to the left and whole column above — the
// RowColumn (2D/1D) DAG pattern of Fig. 6 in the paper.
type SWGG struct {
	A, B     []byte
	Match    int32 // score for A[i] == B[j] (positive)
	Mismatch int32 // score for A[i] != B[j] (negative)
	GapOpen  int32 // positive penalty
	GapExt   int32 // positive penalty per gap column
}

// NewSWGG builds the aligner with the default scoring used throughout the
// benchmarks: +2 match, -1 mismatch, gap w(k) = 2 + k.
func NewSWGG(a, b []byte) *SWGG {
	return &SWGG{A: a, B: b, Match: 2, Mismatch: -1, GapOpen: 2, GapExt: 1}
}

// Size returns the DP matrix extent.
func (s *SWGG) Size() dag.Size { return dag.Size{Rows: len(s.A), Cols: len(s.B)} }

func (s *SWGG) score(i, j int) int32 {
	if s.A[i] == s.B[j] {
		return s.Match
	}
	return s.Mismatch
}

func (s *SWGG) gap(k int) int32 { return s.GapOpen + s.GapExt*int32(k) }

// Pattern implements core.Kernel.
func (s *SWGG) Pattern() dag.Pattern { return dag.RowColumn{} }

// CellCost implements tune.CostModel: cell (i, j) scans its row and column
// prefixes, so its cost grows as i+j. Normalized to mean ~1 over the
// matrix so the total weighted work is the cell count.
func (s *SWGG) CellCost(i, j int) float64 {
	return float64(i+j+2) / float64(len(s.A)/2+len(s.B)/2+2)
}

// Boundary implements core.Kernel: virtual cells left of column 0 or above
// row 0 score zero (local alignment restarts freely).
func (s *SWGG) Boundary(i, j int) int32 { return 0 }

// Row implements core.Kernel. Every cell weighs the candidates of
// Sequential(), one by one, each through maxPlus or settle: the column
// above is swept a source row at a time across the whole segment, row r
// offered with the gap it closes, -w(i-r); each cell to the left in the row
// is offered over the ramp row -t*GapExt of the segment (gaps); each cell
// takes its diagonal; then the cells are finalized a group at a time, left
// to right: each offers out[t] - w(u-t) to the later cells u of its group
// (settle), and the finished group is offered over the ramp to every cell
// after it in one sweep.
func (s *SWGG) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	clear(out) // local alignment restarts at 0
	var left, ramp [sweep]int32
	for t := range ramp[:min(len(out), sweep)] {
		ramp[t] = -int32(t) * s.GapExt
	}
	var tile [group][group]int32
	for y := range tile {
		for x := range y {
			tile[y][x] = -s.gap(y - x)
		}
	}
	above := newRows(v, j0, len(out), i)
	var last []int32 // row i-1 of the segment: the diagonals
	for r := 0; r < i; {
		cells, stride, m := above.band(r)
		l, g, ext := left[:min(m, sweep)], -s.gap(i-r), s.GapExt
		for x := range l {
			l[x], g = g, g+ext // -w(i-r-x), wrapping as s.gap does
		}
		maxPlus(out, l, cells, stride)
		last = cells[(len(l)-1)*stride:][:len(out)]
		r += len(l)
	}
	var one [1]int32
	for c := 0; c < j0; {
		run := rowRun(v, i, c, min(j0-c, sweep), &one)
		s.gaps(out, run, j0-c, &left, &ramp)
		c += len(run)
	}
	diag := v.Get(i-1, j0-1) // in row 0 every diagonal is the boundary's 0
	a, match, mismatch := s.A[i], s.Match, s.Mismatch
	for t, b := range s.B[j0 : j0+len(out)] {
		score := mismatch // a conditional move, where s.score would branch
		if b == a {
			score = match
		}
		out[t] = max(out[t], diag+score)
		if last != nil {
			diag = last[t]
		}
	}
	for t0 := 0; t0 < len(out); t0 += group {
		t1 := min(t0+group, len(out))
		settle(out[t0:t1], &tile)
		s.gaps(out[t1:], out[t0:t1], t1-t0, &left, &ramp)
	}
}

// gaps offers each cell src[x], d-x columns left of out[0], to every cell
// of out over the ramp: out[t] weighs src[x] - w(d-x+t).
func (s *SWGG) gaps(out, src []int32, d int, left, ramp *[sweep]int32) {
	for u := 0; u < len(out); u += sweep {
		l, w, ext := left[:len(src)], s.gap(d+u), s.GapExt
		for x, c := range src {
			l[x], w = c-w, w-ext // w is w(d+u-x), wrapping as s.gap does
		}
		maxPlus(out[u:min(u+sweep, len(out))], l, ramp[:], 0)
	}
}

// Problem wraps the aligner for the runtime.
func (s *SWGG) Problem() core.Problem[int32] {
	return problem[int32](fmt.Sprintf("swgg-%dx%d", len(s.A), len(s.B)), s.Size(), s)
}

// Sequential computes the full matrix with a plain O(n^3) loop nest — the
// reference implementation for correctness checks and speedup baselines.
func (s *SWGG) Sequential() [][]int32 {
	la, lb := len(s.A), len(s.B)
	h := grid[int32](la, lb)
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 0
		}
		return h[i][j]
	}
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			best := int32(0)
			if d := get(i-1, j-1) + s.score(i, j); d > best {
				best = d
			}
			for k := 1; k <= j; k++ {
				if c := h[i][j-k] - s.gap(k); c > best {
					best = c
				}
			}
			for k := 1; k <= i; k++ {
				if c := h[i-k][j] - s.gap(k); c > best {
					best = c
				}
			}
			h[i][j] = best
		}
	}
	return h
}

// BestLocal returns the maximum score in the matrix and its position.
func BestLocal(h [][]int32) (score int32, bi, bj int) {
	for i := range h {
		for j := range h[i] {
			if h[i][j] > score {
				score, bi, bj = h[i][j], i, j
			}
		}
	}
	return score, bi, bj
}

// Alignment is the result of a traceback: two gapped rows of equal length.
type Alignment struct {
	RowA, RowB []byte
	Score      int32
	StartA     int // index in A of the first aligned base
	StartB     int
}

// Traceback recovers one optimal local alignment from a completed SWGG
// matrix by re-deriving the winning move at each cell.
func (s *SWGG) Traceback(h [][]int32) Alignment {
	score, i, j := BestLocal(h)
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 0
		}
		return h[i][j]
	}
	var ra, rb []byte
walk:
	for i >= 0 && j >= 0 && h[i][j] > 0 {
		cur := h[i][j]
		if cur == get(i-1, j-1)+s.score(i, j) {
			ra = append(ra, s.A[i])
			rb = append(rb, s.B[j])
			i, j = i-1, j-1
			continue
		}
		for k := 1; k <= j; k++ {
			if cur == get(i, j-k)-s.gap(k) {
				for t := 0; t < k; t++ {
					ra = append(ra, '-')
					rb = append(rb, s.B[j-t])
				}
				j -= k
				continue walk
			}
		}
		for k := 1; k <= i; k++ {
			if cur == get(i-k, j)-s.gap(k) {
				for t := 0; t < k; t++ {
					ra = append(ra, s.A[i-t])
					rb = append(rb, '-')
				}
				i -= k
				continue walk
			}
		}
		break // cell value is 0-anchored: alignment starts here
	}
	slices.Reverse(ra)
	slices.Reverse(rb)
	return Alignment{RowA: ra, RowB: rb, Score: score, StartA: i + 1, StartB: j + 1}
}
