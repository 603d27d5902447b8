package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// heaviest is a per-cell kernel, run through core.Cells: the heaviest path
// to (i, j) over west, north and north-west steps, under any pattern that
// computes those reads first. A cell the pattern does not compute is read as its
// Boundary and holds zero in the result.
type heaviest struct {
	pat  dag.Pattern
	size dag.Size
}

func (k heaviest) Pattern() dag.Pattern { return k.pat }

func (k heaviest) Boundary(i, j int) int32 { return int32((i*5 + j*3) % 7) }

func (k heaviest) weight(i, j int) int32 { return int32((i*31 + j*17) % 13) }

func (k heaviest) Cell(v *matrix.View[int32], i, j int) int32 {
	return k.weight(i, j) + max(v.Get(i, j-1), v.Get(i-1, j), v.Get(i-1, j-1))
}

// sequential computes the matrix row by row, reading what the pattern does
// not compute, or what lies outside the matrix, as Boundary.
func (k heaviest) sequential() [][]int32 {
	out := make([][]int32, k.size.Rows)
	for i := range out {
		out[i] = make([]int32, k.size.Cols)
	}
	get := func(i, j int) int32 {
		if i < 0 || j < 0 || !k.pat.CellExists(i, j) {
			return k.Boundary(i, j)
		}
		return out[i][j]
	}
	for i := range out {
		for j := range out[i] {
			if k.pat.CellExists(i, j) {
				out[i][j] = k.weight(i, j) + max(get(i, j-1), get(i-1, j), get(i-1, j-1))
			}
		}
	}
	return out
}

// wavefrontBlocks are the block dependencies of heaviest: west and north
// topologically, and the north-west block's corner as data too.
func wavefrontBlocks(name string) dag.Custom {
	return dag.Custom{
		PatternName: name,
		PrecursorsFunc: func(g dag.Geometry, p dag.Pos, buf []dag.Pos) []dag.Pos {
			return dag.Wavefront{}.Precursors(g, p, buf)
		},
		DataDepsFunc: func(g dag.Geometry, p dag.Pos, buf []dag.Pos) []dag.Pos {
			return dag.Wavefront{}.DataDeps(g, p, buf)
		},
	}
}

// A Custom pattern states its order with RowOrderFunc alone, in any
// segments — here one cell at a time, column by column — and without one
// computes each row's runs of existing cells: both run a Cell-only kernel
// to its sequential answer at one thread and two.
func TestCustomRowOrderRuns(t *testing.T) {
	colMajor := wavefrontBlocks("test-colmajor")
	colMajor.RowOrderFunc = func(r dag.Rect, visit func(i, j0, j1 int)) {
		for j := r.Col0; j < r.Col0+r.Cols; j++ {
			for i := r.Row0; i < r.Row0+r.Rows; i++ {
				visit(i, j, j+1)
			}
		}
	}
	holes := wavefrontBlocks("test-holes")
	holes.CellExistsFunc = func(i, j int) bool { return (i+j)%3 != 0 }

	var segs [][3]int
	holes.RowOrder(dag.Rect{Row0: 1, Col0: 0, Rows: 2, Cols: 6}, func(i, j0, j1 int) { segs = append(segs, [3]int{i, j0, j1}) })
	if got, want := fmt.Sprint(segs), "[[1 0 2] [1 3 5] [2 0 1] [2 2 4] [2 5 6]]"; got != want {
		t.Errorf("the holes cut rows 1 and 2 into %s, want %s", got, want)
	}

	size := dag.Size{Rows: 20, Cols: 23}
	for _, pat := range []dag.Custom{colMajor, holes} {
		if err := dag.Validate(pat, dag.MatrixGeometry(size, dag.Square(8))); err != nil {
			t.Fatal(err)
		}
		k := heaviest{pat, size}
		for _, threads := range []int{1, 2} {
			p := core.Problem[int32]{Name: pat.Name(), Size: size, Kernel: core.Cells[int32](k), Codec: matrix.BinaryCodec[int32]{}}
			cfg := testConfig()
			cfg.Slaves, cfg.Threads, cfg.ProcPartition, cfg.ThreadPartition = 2, threads, dag.Square(8), dag.Square(3)
			res, err := core.RunContext(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			equalMatrices(t, fmt.Sprintf("%s at %d threads", pat.Name(), threads), res.Matrix(), k.sequential())
		}
	}
}
