package dp

import (
	"fmt"

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

func (nu *Nussinov) pairBonus(i, j int) int32 {
	if nu.CanPair(i, j) {
		return 1
	}
	return 0
}

// Pattern implements core.Kernel.
func (nu *Nussinov) Pattern() dag.Pattern { return dag.Triangular{} }

// CellCost implements core.CostModel: cell (i, j) scans its span, so its
// cost grows as j-i. Normalized to mean ~1 over the triangle (mean span is
// n/3).
func (nu *Nussinov) CellCost(i, j int) float64 {
	return float64(3*(j-i)+1) / float64(len(nu.S)+1)
}

// Boundary implements core.Kernel: cells below the diagonal (and outside
// the matrix) fold nothing.
func (nu *Nussinov) Boundary(i, j int) int32 { return 0 }

// Cell implements core.Kernel.
func (nu *Nussinov) Cell(v *matrix.View[int32], i, j int) int32 {
	if i == j {
		return 0
	}
	best := v.Get(i+1, j)
	if c := v.Get(i, j-1); c > best {
		best = c
	}
	if nu.CanPair(i, j) {
		if c := v.Get(i+1, j-1) + 1; c > best {
			best = c
		}
	}
	splitRuns(v, i, j, i+1, j, 1, func(_ int, row, col []int32, stride int) {
		b := best
		for t, x := 0, 0; t < len(row); t, x = t+1, x+stride {
			if c := row[t] + col[x]; c > b {
				b = c
			}
		}
		best = b
	})
	return best
}

// Problem wraps the folder for the runtime.
func (nu *Nussinov) Problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("nussinov-%d", len(nu.S)),
		Size:   nu.Size(),
		Kernel: nu,
		Codec:  matrix.BinaryCodec[int32]{},
	}
}

// Sequential computes the full upper-triangular matrix by increasing span
// — the reference implementation.
func (nu *Nussinov) Sequential() [][]int32 {
	n := len(nu.S)
	f := make([][]int32, n)
	backing := make([]int32, n*n)
	for i := range f {
		f[i], backing = backing[:n], backing[n:]
	}
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
