package dp

import (
	"fmt"

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

// CellCost implements core.CostModel: cell (i, j) scans its row and column
// prefixes, so its cost grows as i+j. Normalized to mean ~1 over the
// matrix so total emulated work is invariant.
func (s *SWGG) CellCost(i, j int) float64 {
	return float64(i+j+2) / float64(len(s.A)/2+len(s.B)/2+2)
}

// Boundary implements core.Kernel: virtual cells left of column 0 or above
// row 0 score zero (local alignment restarts freely).
func (s *SWGG) Boundary(i, j int) int32 { return 0 }

// Cell implements core.Kernel.
func (s *SWGG) Cell(v *matrix.View[int32], i, j int) int32 {
	best := int32(0)
	if d := v.Get(i-1, j-1) + s.score(i, j); d > best {
		best = d
	}
	// Cell (i, c) of the row to the left closes a gap of j-c columns, cell
	// (r, j) of the column above one of i-r rows; along a run the gap
	// shrinks by one per cell. The maximum does not depend on the order.
	rowRuns(v, i, 0, j, func(c int, cells []int32) {
		b, w := best, s.gap(j-c)
		for _, h := range cells {
			if x := h - w; x > b {
				b = x
			}
			w -= s.GapExt
		}
		best = b
	})
	colRuns(v, j, 0, i, func(r int, cells []int32, stride int) {
		b, w := best, s.gap(i-r)
		for x := 0; x < len(cells); x += stride {
			if c := cells[x] - w; c > b {
				b = c
			}
			w -= s.GapExt
		}
		best = b
	})
	return best
}

// Problem wraps the aligner for the runtime.
func (s *SWGG) Problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("swgg-%dx%d", len(s.A), len(s.B)),
		Size:   s.Size(),
		Kernel: s,
		Codec:  matrix.BinaryCodec[int32]{},
	}
}

// Sequential computes the full matrix with a plain O(n^3) loop nest — the
// reference implementation for correctness checks and speedup baselines.
func (s *SWGG) Sequential() [][]int32 {
	la, lb := len(s.A), len(s.B)
	h := make([][]int32, la)
	backing := make([]int32, la*lb)
	for i := range h {
		h[i], backing = backing[:lb], backing[lb:]
	}
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
	for i >= 0 && j >= 0 && h[i][j] > 0 {
		cur := h[i][j]
		if cur == get(i-1, j-1)+s.score(i, j) {
			ra = append(ra, s.A[i])
			rb = append(rb, s.B[j])
			i, j = i-1, j-1
			continue
		}
		moved := false
		for k := 1; k <= j && !moved; k++ {
			if cur == get(i, j-k)-s.gap(k) {
				for t := 0; t < k; t++ {
					ra = append(ra, '-')
					rb = append(rb, s.B[j-t])
				}
				j -= k
				moved = true
			}
		}
		for k := 1; k <= i && !moved; k++ {
			if cur == get(i-k, j)-s.gap(k) {
				for t := 0; t < k; t++ {
					ra = append(ra, s.A[i-t])
					rb = append(rb, '-')
				}
				i -= k
				moved = true
			}
		}
		if !moved {
			break // cell value is 0-anchored: alignment starts here
		}
	}
	reverse(ra)
	reverse(rb)
	return Alignment{RowA: ra, RowB: rb, Score: score, StartA: i + 1, StartB: j + 1}
}

func reverse(b []byte) {
	for l, r := 0, len(b)-1; l < r; l, r = l+1, r-1 {
		b[l], b[r] = b[r], b[l]
	}
}
