package dp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// Nussinov is the classic RNA secondary-structure prediction algorithm:
// F[i,j] is the maximum number of complementary base pairs in the
// subsequence S[i..j]:
//
//	F[i,j] = max(F[i+1,j],
//	             F[i,j-1],
//	             F[i+1,j-1] + pair(i,j),
//	             max_{i<k<j} F[i,k] + F[k+1,j])
//
// with F[i,j] = 0 whenever j-i < 1. Only the upper triangle i <= j is
// computed — the Triangular (2D/1D) DAG pattern of Fig. 5 in the paper.
type Nussinov struct {
	S []byte
	// MinLoop is the minimal hairpin loop length: bases i and j may pair
	// only when j-i > MinLoop. The biological default is 3; tests use
	// smaller values to densify small instances.
	MinLoop int
	// WobblePairs additionally allows G-U pairs.
	WobblePairs bool
}

// NewNussinov builds the folder with the biological defaults.
func NewNussinov(s []byte) *Nussinov {
	return &Nussinov{S: s, MinLoop: 3, WobblePairs: true}
}

// Size returns the DP matrix extent.
func (nu *Nussinov) Size() dag.Size { return dag.Square(len(nu.S)) }

// CanPair reports whether bases i and j may form a pair.
func (nu *Nussinov) CanPair(i, j int) bool {
	if j-i <= nu.MinLoop {
		return false
	}
	a, b := nu.S[i], nu.S[j]
	if a > b {
		a, b = b, a
	}
	switch {
	case a == 'A' && (b == 'U' || b == 'T'):
		return true
	case a == 'C' && b == 'G':
		return true
	case a == 'G' && b == 'U':
		return nu.WobblePairs
	}
	return false
}

// Pattern implements core.Kernel.
func (nu *Nussinov) Pattern() dag.Pattern { return dag.Triangular{} }

// CellCost implements tune.CostModel: cell (i, j) scans its span, so its
// cost grows as j-i. Normalized to mean ~1 over the triangle (mean span is
// n/3).
func (nu *Nussinov) CellCost(i, j int) float64 {
	return float64(3*(j-i)+1) / float64(len(nu.S)+1)
}

// Boundary implements core.Kernel: cells below the diagonal (and outside
// the matrix) fold nothing.
func (nu *Nussinov) Boundary(i, j int) int32 { return 0 }

// Row implements core.Kernel. F[i,i] and F[j,j] are 0, so the terms
// F[i+1,j] and F[i,j-1] are the split points k = i and k = j-1 of
// F[i,k] + F[k+1,j], and a cell weighs the pair term and the split points
// i <= k < j: the candidates of Sequential(). The split points left of the
// segment are swept a source row at a time across the whole segment — row
// k+1 of the segment, offered F[i,k] — four to a pass. Each cell takes its
// pair term; then the cells are finalized a group at a time, left to right:
// each is offered, as a split point, to the later cells of its group over
// the group's own triangle (settle), and the finished group to every cell
// after it in one sweep over the band of its rows k+1, which lies on or
// above the diagonal and so holds no hole.
func (nu *Nussinov) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	j1 := j0 + len(out)
	for t := range out {
		out[t] = math.MinInt32
	}
	below := newRows(v, j0, len(out), j0+1)
	var one [1]int32
	for k := i; k < j0; {
		left, cells, stride := below.split(i, k, &one)
		maxPlus(out, left, cells, stride)
		k += len(left)
	}
	for t := 0; t < len(out); { // the pair terms, F[i+1,j-1] + 1
		for _, f := range rowRun(v, i+1, j0+t-1, len(out)-t, &one) {
			if j := j0 + t; j == i {
				out[t] = 0
			} else if nu.CanPair(i, j) {
				out[t] = max(out[t], f+1)
			}
			t++
		}
	}
	var tile [group][group]int32
	for t0 := 0; t0 < len(out); t0 += group {
		t1 := min(t0+group, len(out))
		for x := range t1 - t0 - 1 { // tile[y][x] = F[j0+t0+x+1, j0+t0+y]
			for y := x + 1; y < t1-t0; {
				for _, f := range rowRun(v, j0+t0+x+1, j0+t0+y, t1-t0-y, &one) {
					tile[y][x], y = f, y+1
				}
			}
		}
		settle(out[t0:t1], &tile)
		side := newRows(v, j0+t1, j1-j0-t1, j0+t1+1)
		for r := j0 + t0 + 1; t1 < len(out) && r <= j0+t1; {
			cells, stride, m := side.band(r)
			maxPlus(out[t1:], out[r-j0-1:r-j0-1+m], cells, stride)
			r += m
		}
	}
}

// Problem wraps the folder for the runtime.
func (nu *Nussinov) Problem() core.Problem[int32] {
	return problem[int32](fmt.Sprintf("nussinov-%d", len(nu.S)), nu.Size(), nu)
}

// Sequential computes the full upper-triangular matrix by increasing span
// — the reference implementation.
func (nu *Nussinov) Sequential() [][]int32 {
	n := len(nu.S)
	f := grid[int32](n, n)
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := f[i+1][j]
			if c := f[i][j-1]; c > best {
				best = c
			}
			if nu.CanPair(i, j) {
				c := int32(1)
				if i+1 <= j-1 {
					c += f[i+1][j-1]
				}
				if c > best {
					best = c
				}
			}
			for k := i + 1; k < j; k++ {
				if c := f[i][k] + f[k+1][j]; c > best {
					best = c
				}
			}
			f[i][j] = best
		}
	}
	return f
}

// Structure recovers a dot-bracket secondary structure from a completed
// matrix.
func (nu *Nussinov) Structure(f [][]int32) string {
	n := len(nu.S)
	out := make([]byte, n)
	for i := range out {
		out[i] = '.'
	}
	type span struct{ i, j int }
	stack := []span{{0, n - 1}}
	get := func(i, j int) int32 {
		if i < 0 || j < 0 || i >= n || j >= n || i >= j {
			return 0
		}
		return f[i][j]
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i, j := s.i, s.j
		if i >= j || get(i, j) == 0 {
			continue
		}
		switch {
		case get(i, j) == get(i+1, j):
			stack = append(stack, span{i + 1, j})
		case get(i, j) == get(i, j-1):
			stack = append(stack, span{i, j - 1})
		case nu.CanPair(i, j) && get(i, j) == get(i+1, j-1)+1:
			out[i], out[j] = '(', ')'
			stack = append(stack, span{i + 1, j - 1})
		default:
			for k := i + 1; k < j; k++ {
				if get(i, j) == get(i, k)+get(k+1, j) {
					stack = append(stack, span{i, k}, span{k + 1, j})
					break
				}
			}
		}
	}
	return string(out)
}

// PairCount counts the pairs in a dot-bracket string and verifies it is
// balanced; it returns -1 for an unbalanced structure.
func PairCount(structure string) int {
	depth, pairs := 0, 0
	for _, c := range structure {
		switch c {
		case '(':
			depth++
			pairs++
		case ')':
			depth--
			if depth < 0 {
				return -1
			}
		}
	}
	if depth != 0 {
		return -1
	}
	return pairs
}
