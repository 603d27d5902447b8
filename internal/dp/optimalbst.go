package dp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// OptimalBST is optimal binary search tree construction (Knuth), one of
// the motivating applications in the paper's introduction. E[i][j] is the
// minimal expected search cost of a BST over keys i..j:
//
//	E[i,i] = P[i]
//	E[i,j] = W(i,j) + min_{i<=r<=j} (E[i,r-1] + E[r+1,j])
//
// where W(i,j) = sum of P[i..j] and E over an empty range is 0. The same
// triangular 2D/1D pattern as Nussinov and matrix chain.
type OptimalBST struct {
	// P are the (integer-scaled) access frequencies of the keys.
	P []int64
	// prefix[i] = sum of P[0..i-1] for O(1) range weights.
	prefix []int64
}

// NewOptimalBST builds an instance with reproducible random frequencies in
// [1, maxFreq].
func NewOptimalBST(keys int, maxFreq int64, seed int64) *OptimalBST {
	rng := rand.New(rand.NewSource(seed))
	p := make([]int64, keys)
	for i := range p {
		p[i] = 1 + rng.Int63n(maxFreq)
	}
	return NewOptimalBSTFromFreqs(p)
}

// NewOptimalBSTFromFreqs builds an instance from explicit frequencies.
func NewOptimalBSTFromFreqs(p []int64) *OptimalBST {
	b := &OptimalBST{P: p, prefix: make([]int64, len(p)+1)}
	for i, f := range p {
		b.prefix[i+1] = b.prefix[i] + f
	}
	return b
}

// weight returns sum of P[i..j].
func (b *OptimalBST) weight(i, j int) int64 { return b.prefix[j+1] - b.prefix[i] }

// Size returns the DP matrix extent.
func (b *OptimalBST) Size() dag.Size { return dag.Square(len(b.P)) }

// Pattern implements core.Kernel.
func (b *OptimalBST) Pattern() dag.Pattern { return dag.Triangular{} }

// Boundary implements core.Kernel: empty key ranges cost nothing.
func (b *OptimalBST) Boundary(i, j int) int64 { return 0 }

// Cell implements core.Kernel.
func (b *OptimalBST) Cell(v *matrix.View[int64], i, j int) int64 {
	if i == j {
		return b.P[i]
	}
	best := int64(1) << 62
	// Root r pairs E[i,r-1] with E[r+1,j]: split point k = r-1, column
	// walk two rows ahead. The empty ranges at both ends are holes of the
	// pattern and read as Boundary.
	splitRuns(v, i, j, i-1, j, 2, func(_ int, row, col []int64, stride int) {
		m := best
		for t, x := 0, 0; t < len(row); t, x = t+1, x+stride {
			if c := row[t] + col[x]; c < m {
				m = c
			}
		}
		best = m
	})
	return best + b.weight(i, j)
}

// Problem wraps the kernel for the runtime.
func (b *OptimalBST) Problem() core.Problem[int64] {
	return core.Problem[int64]{
		Name:   fmt.Sprintf("optimalbst-%d", len(b.P)),
		Size:   b.Size(),
		Kernel: b,
		Codec:  matrix.BinaryCodec[int64]{},
	}
}

// Sequential is the reference implementation.
func (b *OptimalBST) Sequential() [][]int64 {
	n := len(b.P)
	e := make([][]int64, n)
	backing := make([]int64, n*n)
	for i := range e {
		e[i], backing = backing[:n], backing[n:]
	}
	get := func(i, j int) int64 {
		if i > j || i < 0 || j >= n {
			return 0
		}
		return e[i][j]
	}
	for span := 0; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			if span == 0 {
				e[i][j] = b.P[i]
				continue
			}
			best := int64(1) << 62
			for r := i; r <= j; r++ {
				c := get(i, r-1) + get(r+1, j)
				if c < best {
					best = c
				}
			}
			e[i][j] = best + b.weight(i, j)
		}
	}
	return e
}

// Cost returns the optimal expected search cost from a completed matrix.
func (b *OptimalBST) Cost(e [][]int64) int64 {
	if len(b.P) == 0 {
		return 0
	}
	return e[0][len(b.P)-1]
}
