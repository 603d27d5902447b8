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

// Row implements core.Kernel. Root r pairs E[i,r-1] with E[r+1,j]: split
// point k = r-1 pairs cell (i, k) with cell (k+2, j), for i-1 <= k < j,
// where the empty ranges at both ends are holes of the pattern and read as
// Boundary — the candidates of Sequential(). The split points whose row
// k+2 lies whole under the segment are swept a source row at a time across
// it; then E[i,j0-1], and each cell once it is final, is offered to the
// cells after it.
func (b *OptimalBST) Row(v *matrix.View[int64], i, j0 int, out []int64) {
	for t := range out {
		out[t] = 1 << 62
	}
	below := newRows(v, j0, len(out), j0+1)
	var one [1]int64
	for k := i - 1; k < j0-1; {
		left := rowRun(v, i, k, j0-1-k, &one)
		for x := 0; x < len(left); {
			cells, stride, m := below.band(k + x + 2)
			m = min(m, len(left)-x)
			minPlus(out, left[x:x+m], cells, stride)
			x += m
		}
		k += len(left)
	}
	one[0] = v.Get(i, j0-1)
	b.offer(v, j0-1, one[:], out, j0)
	for t := range out {
		if j := j0 + t; j == i {
			out[t] = b.P[i]
		} else {
			out[t] += b.weight(i, j)
		}
		b.offer(v, j0+t, out[t:t+1], out[t+1:], j0+t+1)
	}
}

// offer pairs E[i,k] = left[0] with E[k+2,j] for the cells (i, j) of out,
// which start at column j0 > k.
func (b *OptimalBST) offer(v *matrix.View[int64], k int, left, out []int64, j0 int) {
	var one [1]int64
	for c := j0; c < j0+len(out); {
		run := rowRun(v, k+2, c, j0+len(out)-c, &one)
		minPlus(out[c-j0:c-j0+len(run)], left, run, 0)
		c += len(run)
	}
}

// minPlus offers left[x] + cells[x*stride+t] to each out[t]: split point x
// pairs a cell to the left with row x of a band. Four split points share a
// pass over out.
func minPlus(out, left, cells []int64, stride int) {
	w, x := len(out), 0
	for ; x+4 <= len(left); x += 4 {
		l := left[x : x+4]
		h0, h1 := cells[x*stride:][:w], cells[(x+1)*stride:][:w]
		h2, h3 := cells[(x+2)*stride:][:w], cells[(x+3)*stride:][:w]
		for t := range out {
			if c := min(l[0]+h0[t], l[1]+h1[t], l[2]+h2[t], l[3]+h3[t]); c < out[t] {
				out[t] = c
			}
		}
	}
	for ; x < len(left); x++ {
		l := left[x]
		for t, h := range cells[x*stride:][:w] {
			if c := l + h; c < out[t] {
				out[t] = c
			}
		}
	}
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
