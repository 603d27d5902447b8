package dp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// MatrixChain is optimal matrix-chain parenthesization, the canonical
// 2D/1D triangular recurrence (Algorithm 4.2 family):
//
//	M[i,i] = 0
//	M[i,j] = min_{i<=k<j} M[i,k] + M[k+1,j] + Dims[i]*Dims[k+1]*Dims[j+1]
//
// where matrix t has dimensions Dims[t] x Dims[t+1]. It shares the
// Triangular DAG pattern with Nussinov.
type MatrixChain struct {
	// Dims has length n+1 for n matrices.
	Dims []int64
}

// NewMatrixChain builds the kernel for random reproducible dimensions in
// [minDim, maxDim].
func NewMatrixChain(n int, minDim, maxDim int64, seed int64) *MatrixChain {
	rng := rand.New(rand.NewSource(seed))
	dims := make([]int64, n+1)
	for i := range dims {
		dims[i] = minDim + rng.Int63n(maxDim-minDim+1)
	}
	return &MatrixChain{Dims: dims}
}

// Size returns the DP matrix extent (n x n upper triangle).
func (m *MatrixChain) Size() dag.Size { return dag.Square(len(m.Dims) - 1) }

// Pattern implements core.Kernel.
func (m *MatrixChain) Pattern() dag.Pattern { return dag.Triangular{} }

// Boundary implements core.Kernel; the recurrence never reads outside the
// triangle, so the value is irrelevant.
func (m *MatrixChain) Boundary(i, j int) int64 { return 0 }

// Cell implements core.Kernel.
func (m *MatrixChain) Cell(v *matrix.View[int64], i, j int) int64 {
	if i == j {
		return 0
	}
	best := int64(1) << 62
	outer := m.Dims[i] * m.Dims[j+1]
	splitRuns(v, i, j, i, j, 1, func(k int, row, col []int64, stride int) {
		b := best
		for t, x := 0, 0; t < len(row); t, x = t+1, x+stride {
			if c := row[t] + col[x] + outer*m.Dims[k+t+1]; c < b {
				b = c
			}
		}
		best = b
	})
	return best
}

// Problem wraps the kernel for the runtime.
func (m *MatrixChain) Problem() core.Problem[int64] {
	return core.Problem[int64]{
		Name:   fmt.Sprintf("matrixchain-%d", len(m.Dims)-1),
		Size:   m.Size(),
		Kernel: m,
		Codec:  matrix.BinaryCodec[int64]{},
	}
}

// Sequential is the reference implementation.
func (m *MatrixChain) Sequential() [][]int64 {
	n := len(m.Dims) - 1
	d := make([][]int64, n)
	backing := make([]int64, n*n)
	for i := range d {
		d[i], backing = backing[:n], backing[n:]
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := int64(1) << 62
			for k := i; k < j; k++ {
				c := d[i][k] + d[k+1][j] + m.Dims[i]*m.Dims[k+1]*m.Dims[j+1]
				if c < best {
					best = c
				}
			}
			d[i][j] = best
		}
	}
	return d
}

// Knapsack is the 0/1 knapsack problem over the RowOnly pattern: row i is
// item i, column w is remaining capacity:
//
//	V[i,w] = max(V[i-1,w], V[i-1,w-Weight[i]] + Value[i])
type Knapsack struct {
	Weights  []int
	Values   []int32
	Capacity int
}

// NewKnapsack builds a reproducible random instance.
func NewKnapsack(items, capacity int, seed int64) *Knapsack {
	rng := rand.New(rand.NewSource(seed))
	k := &Knapsack{
		Weights:  make([]int, items),
		Values:   make([]int32, items),
		Capacity: capacity,
	}
	for i := 0; i < items; i++ {
		k.Weights[i] = 1 + rng.Intn(capacity/4+1)
		k.Values[i] = int32(1 + rng.Intn(100))
	}
	return k
}

// Size returns the DP matrix extent: items x (capacity+1).
func (k *Knapsack) Size() dag.Size {
	return dag.Size{Rows: len(k.Weights), Cols: k.Capacity + 1}
}

// Pattern implements core.Kernel.
func (k *Knapsack) Pattern() dag.Pattern { return dag.RowOnly{} }

// Boundary implements core.Kernel: the virtual row above item 0 is all
// zeros, and negative capacities are impossible (scored as a large
// negative so they never win).
func (k *Knapsack) Boundary(i, j int) int32 {
	if j < 0 {
		return -1 << 30
	}
	return 0
}

// Cell implements core.Kernel.
func (k *Knapsack) Cell(v *matrix.View[int32], i, w int) int32 {
	best := v.Get(i-1, w)
	if take := v.Get(i-1, w-k.Weights[i]) + k.Values[i]; take > best {
		best = take
	}
	return best
}

// Problem wraps the kernel for the runtime.
func (k *Knapsack) Problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("knapsack-%dx%d", len(k.Weights), k.Capacity),
		Size:   k.Size(),
		Kernel: k,
		Codec:  matrix.BinaryCodec[int32]{},
	}
}

// Sequential is the reference implementation.
func (k *Knapsack) Sequential() [][]int32 {
	rows, cols := len(k.Weights), k.Capacity+1
	d := make([][]int32, rows)
	backing := make([]int32, rows*cols)
	for i := range d {
		d[i], backing = backing[:cols], backing[cols:]
	}
	get := func(i, w int) int32 {
		if w < 0 {
			return -1 << 30
		}
		if i < 0 {
			return 0
		}
		return d[i][w]
	}
	for i := 0; i < rows; i++ {
		for w := 0; w < cols; w++ {
			best := get(i-1, w)
			if take := get(i-1, w-k.Weights[i]) + k.Values[i]; take > best {
				best = take
			}
			d[i][w] = best
		}
	}
	return d
}

// Best returns the optimal knapsack value from a completed matrix.
func (k *Knapsack) Best(d [][]int32) int32 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1][k.Capacity]
}

// Dominance43 is the synthetic 2D/2D recurrence of Algorithm 4.3 in the
// paper:
//
//	D[i,j] = min_{0<=i'<i, 0<=j'<j} D[i',j'] + W[i'+j'][i+j]
//
// with given boundary rows/columns folded into Boundary. W is a
// reproducible random weight table. It exercises the Dominance pattern,
// whose data region is the full dominated rectangle.
type Dominance43 struct {
	N int
	W [][]int32
}

// NewDominance43 builds a reproducible instance of size n.
func NewDominance43(n int, seed int64) *Dominance43 {
	rng := rand.New(rand.NewSource(seed))
	w := make([][]int32, 2*n)
	for i := range w {
		w[i] = make([]int32, 2*n)
		for j := range w[i] {
			w[i][j] = int32(rng.Intn(50))
		}
	}
	return &Dominance43{N: n, W: w}
}

// Size returns the DP matrix extent.
func (d *Dominance43) Size() dag.Size { return dag.Square(d.N) }

// Pattern implements core.Kernel.
func (d *Dominance43) Pattern() dag.Pattern { return dag.Dominance{} }

// Boundary implements core.Kernel: D[i,0-style] boundary cells are zero.
func (d *Dominance43) Boundary(i, j int) int32 { return 0 }

// Cell implements core.Kernel.
func (d *Dominance43) Cell(v *matrix.View[int32], i, j int) int32 {
	best := int32(1) << 30
	for ii := -1; ii < i; ii++ {
		rowRuns(v, ii, -1, j, func(jj int, cells []int32) {
			for x, c := range cells {
				if c += d.w(ii+jj+x+2, i+j+2); c < best {
					best = c
				}
			}
		})
	}
	return best
}

func (d *Dominance43) w(a, b int) int32 {
	if a < 0 || b < 0 || a >= len(d.W) || b >= len(d.W) {
		return 0
	}
	return d.W[a][b]
}

// Problem wraps the kernel for the runtime.
func (d *Dominance43) Problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("dominance-%d", d.N),
		Size:   d.Size(),
		Kernel: d,
		Codec:  matrix.BinaryCodec[int32]{},
	}
}

// Sequential is the reference implementation.
func (d *Dominance43) Sequential() [][]int32 {
	n := d.N
	m := make([][]int32, n)
	backing := make([]int32, n*n)
	for i := range m {
		m[i], backing = backing[:n], backing[n:]
	}
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 0
		}
		return m[i][j]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			best := int32(1) << 30
			for ii := -1; ii < i; ii++ {
				for jj := -1; jj < j; jj++ {
					c := get(ii, jj) + d.w(ii+jj+2, i+j+2)
					if c < best {
						best = c
					}
				}
			}
			m[i][j] = best
		}
	}
	return m
}
