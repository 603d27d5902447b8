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

// Row implements core.Kernel, as Nussinov's does: the split points left
// of the segment are swept a source row at a time across the whole
// segment, then each finalized cell is offered to the cells after it. A
// cell weighs the split points of Sequential(), and its products
// Dims[i]*Dims[k+1]*Dims[j+1] are Sequential()'s.
func (m *MatrixChain) Row(v *matrix.View[int64], i, j0 int, out []int64) {
	j1 := j0 + len(out)
	for t := range out {
		out[t] = 1 << 62
	}
	below := newRows(v, j0, len(out), j0+1)
	var one [1]int64
	for k := i; k < j0; {
		left, cells, stride := below.split(i, k, &one)
		m.splits(out, i, k, j0, left, cells, stride)
		k += len(left)
	}
	for t := range out {
		j := j0 + t
		if j == i {
			out[t] = 0
		}
		for c := j + 1; c < j1; {
			run := rowRun(v, j+1, c, j1-c, &one)
			m.splits(out[c-j0:c-j0+len(run)], i, j, c, out[t:t+1], run, 0)
			c += len(run)
		}
	}
}

// splits offers cells (i, j0), (i, j0+1), ... of out each split point
// k+x: left[x] + cells[x*stride+t] + Dims[i]*Dims[k+x+1]*Dims[j+1].
func (m *MatrixChain) splits(out []int64, i, k, j0 int, left, cells []int64, stride int) {
	right := m.Dims[j0+1:][:len(out)] // Dims[j+1] of the cells
	for x, l := range left {
		p := m.Dims[i] * m.Dims[k+x+1]
		for t, h := range cells[x*stride:][:len(out)] {
			out[t] = min(out[t], l+h+p*right[t])
		}
	}
}

// Problem wraps the kernel for the runtime.
func (m *MatrixChain) Problem() core.Problem[int64] {
	return problem[int64](fmt.Sprintf("matrixchain-%d", len(m.Dims)-1), m.Size(), m)
}

// Sequential is the reference implementation.
func (m *MatrixChain) Sequential() [][]int64 {
	n := len(m.Dims) - 1
	d := grid[int64](n, n)
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := int64(1) << 62
			for k := i; k < j; k++ {
				best = min(best, d[i][k]+d[k+1][j]+m.Dims[i]*m.Dims[k+1]*m.Dims[j+1])
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

// Row implements core.Kernel: the row above is read by runs twice,
// under the segment and Weights[i] columns to the left of it.
func (k *Knapsack) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	j1, wt, val := j0+len(out), k.Weights[i], k.Values[i]
	var one [1]int32
	for j := j0; j < j1; {
		j += copy(out[j-j0:], rowRun(v, i-1, j, j1-j, &one))
	}
	for j := j0; j < j1; {
		run := rowRun(v, i-1, j-wt, j1-j, &one)
		o := out[j-j0:]
		for t, x := range run {
			o[t] = max(o[t], x+val)
		}
		j += len(run)
	}
}

// Problem wraps the kernel for the runtime.
func (k *Knapsack) Problem() core.Problem[int32] {
	return problem[int32](fmt.Sprintf("knapsack-%dx%d", len(k.Weights), k.Capacity), k.Size(), k)
}

// Sequential is the reference implementation.
func (k *Knapsack) Sequential() [][]int32 {
	rows, cols := len(k.Weights), k.Capacity+1
	d := grid[int32](rows, cols)
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
			d[i][w] = max(get(i-1, w), get(i-1, w-k.Weights[i])+k.Values[i])
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

// Pattern implements core.CellKernel.
func (d *Dominance43) Pattern() dag.Pattern { return dag.Dominance{} }

// Boundary implements core.CellKernel: D[i,0-style] boundary cells are zero.
func (d *Dominance43) Boundary(i, j int) int32 { return 0 }

// Cell implements core.CellKernel: the one library kernel the runtime
// computes through core.Cells.
func (d *Dominance43) Cell(v *matrix.View[int32], i, j int) int32 {
	best, one := int32(1)<<30, [1]int32{}
	for ii := -1; ii < i; ii++ {
		for jj := -1; jj < j; {
			run := rowRun(v, ii, jj, j-jj, &one)
			for x, c := range run {
				best = min(best, c+d.w(ii+jj+x+2, i+j+2))
			}
			jj += len(run)
		}
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
	return problem[int32](fmt.Sprintf("dominance-%d", d.N), d.Size(), core.Cells[int32](d))
}

// Sequential is the reference implementation.
func (d *Dominance43) Sequential() [][]int32 {
	n := d.N
	m := grid[int32](n, n)
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
					best = min(best, get(ii, jj)+d.w(ii+jj+2, i+j+2))
				}
			}
			m[i][j] = best
		}
	}
	return m
}
