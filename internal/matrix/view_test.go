package matrix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/testseed"
)

// viewCase is one sub-task as a slave sets it up: a scratch block overlaid
// on the shared output block of its processor-level task, every other
// existing block of the matrix shipped except one — whole, or as a region of
// it: its last rows (aliasing the block), its last columns, or both — and a
// cell-by-cell model of how reads must resolve, written without any of
// View's logic.
type viewCase struct {
	pat     dag.Pattern
	size    dag.Size
	scratch *Block[int32]
	layers  []*Block[int32]
	missing dag.Rect // the block that was not shipped
}

// Where the model says a read resolves.
const (
	atBoundary = iota // not computed: the boundary function answers
	atPanic           // computed but not shipped
	atBlock           // stored in block owner
)

func boundaryValue(i, j int) int32 { return int32(-1000 - 37*i - j) }

// stale is what the shared block holds under the scratch block, and what
// every block holds in the cells the pattern does not compute: a run or a
// read that exposes it is wrong.
const stale = int32(-1)

func cellValue(owner, i, j int) int32 { return int32(owner*1_000_000 + i*1000 + j) }

func newViewCase(rng *rand.Rand, pat dag.Pattern, size dag.Size) *viewCase {
	geom := dag.MatrixGeometry(size, dag.Size{Rows: 1 + rng.Intn(size.Rows), Cols: 1 + rng.Intn(size.Cols)})
	var exist []dag.Pos
	for r := 0; r < geom.Grid.Rows; r++ {
		for c := 0; c < geom.Grid.Cols; c++ {
			if p := (dag.Pos{Row: r, Col: c}); pat.BlockExists(geom, p) {
				exist = append(exist, p)
			}
		}
	}
	rng.Shuffle(len(exist), func(a, b int) { exist[a], exist[b] = exist[b], exist[a] })
	c := &viewCase{pat: pat, size: size}
	fill := func(owner int, r dag.Rect) *Block[int32] {
		b := NewBlock[int32](r)
		for i := r.Row0; i < r.Row0+r.Rows; i++ {
			for j := r.Col0; j < r.Col0+r.Cols; j++ {
				b.Set(i, j, stale)
				if pat.CellExists(i, j) {
					b.Set(i, j, cellValue(owner, i, j))
				}
			}
		}
		return b
	}
	// exist[0] is the running task: layer 0 is its shared block, and the
	// scratch block (owner 0) is one sub-block of it.
	for k, p := range exist {
		if k == 1 {
			c.missing = geom.Rect(p)
			continue
		}
		b := fill(len(c.layers)+1, geom.Rect(p))
		if r := b.Rect; len(c.layers) > 0 {
			if rng.Intn(2) == 0 {
				r.Rows = 1 + rng.Intn(r.Rows)
				r.Row0 += b.Rect.Rows - r.Rows
			}
			if rng.Intn(2) == 0 {
				r.Cols = 1 + rng.Intn(r.Cols)
				r.Col0 += b.Rect.Cols - r.Cols
			}
			b = b.Region(r)
		}
		c.layers = append(c.layers, b)
	}
	shared := c.layers[0]
	tgeom := dag.NewGeometry(shared.Rect, dag.Size{Rows: 1 + rng.Intn(shared.Rect.Rows), Cols: 1 + rng.Intn(shared.Rect.Cols)})
	sub := tgeom.Rect(dag.Pos{Row: rng.Intn(tgeom.Grid.Rows), Col: rng.Intn(tgeom.Grid.Cols)})
	c.scratch = fill(0, sub)
	for i := sub.Row0; i < sub.Row0+sub.Rows; i++ {
		for j := sub.Col0; j < sub.Col0+sub.Cols; j++ {
			shared.Set(i, j, stale)
		}
	}
	return c
}

// resolve is the model: where a read of (i, j) must resolve, and to what.
func (c *viewCase) resolve(i, j int) (where, owner int, val int32) {
	if i < 0 || j < 0 || i >= c.size.Rows || j >= c.size.Cols || !c.pat.CellExists(i, j) {
		return atBoundary, -1, boundaryValue(i, j)
	}
	if c.scratch.Rect.Contains(i, j) {
		return atBlock, 0, cellValue(0, i, j)
	}
	for k, b := range c.layers {
		if b.Rect.Contains(i, j) {
			return atBlock, k + 1, cellValue(k+1, i, j)
		}
	}
	return atPanic, -1, 0
}

// diagnosed runs read and reports whether it panicked with the
// under-specified-region diagnostic; any other panic fails the test.
func diagnosed(t *testing.T, read func()) (panicked bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if !strings.Contains(fmt.Sprint(r), "outside the sub-task data region") {
				t.Fatalf("unexpected panic: %v", r)
			}
			panicked = true
		}
	}()
	read()
	return false
}

// For every library pattern (Triangular with its half-empty diagonal
// blocks, Chain), a Custom pattern with arbitrary holes and one without,
// over random geometries and a retargeted view: Get agrees with the model on every cell
// in and around the matrix; every cell of every run, and of every band of
// any width, is computed and equals Get of that cell; a run or band is as
// long as the request, the block, the shadowing scratch block and the
// holes allow, and a band whose first row leaves its block is empty; and
// Get, run and band requests into the unshipped block panic with the same
// diagnostic.
func TestViewRunsMatchGetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 14)))
	patterns := []dag.Pattern{
		dag.Wavefront{}, dag.RowColumn{}, dag.Triangular{}, dag.Dominance{}, dag.RowOnly{}, dag.Chain{},
		dag.Custom{PatternName: "dense"},
		dag.Custom{PatternName: "holes", CellExistsFunc: func(i, j int) bool { return (i*7+j*3)%5 != 0 }},
	}
	stops := map[string]int{}
	for _, pat := range patterns {
		for round := 0; round < 12; round++ {
			size := dag.Size{Rows: 2 + rng.Intn(14), Cols: 2 + rng.Intn(14)}
			c := newViewCase(rng, pat, size)
			name := fmt.Sprintf("%s %v scratch %v of %v, %v missing", pat.Name(), size, c.scratch.Rect, c.layers[0].Rect, c.missing)
			// As a compute goroutine does: one view over a block the size
			// of the largest sub-block, re-aimed at the sub-task.
			v := NewView(NewBlock[int32](c.layers[0].Rect), c.layers, pat, size, boundaryValue)
			for k := range v.Out().Cells {
				v.Out().Cells[k] = stale // what the previous sub-task left
			}
			v.Retarget(c.scratch.Rect)
			out := v.Out()
			for k, cell := range out.Cells {
				i, j := out.Rect.Row0+k/out.Rect.Cols, out.Rect.Col0+k%out.Rect.Cols
				if cell != 0 && !pat.CellExists(i, j) {
					t.Fatalf("%s: retargeted output block holds %d in hole (%d,%d)", name, cell, i, j)
				}
			}
			v.Out().CopyFrom(c.scratch)
			for i := -1; i <= size.Rows; i++ {
				for j := -1; j <= size.Cols; j++ {
					where, owner, want := c.resolve(i, j)
					var got int32
					if diagnosed(t, func() { got = v.Get(i, j) }) != (where == atPanic) {
						t.Fatalf("%s: Get(%d,%d) panicked: %v, model says %v", name, i, j, where != atPanic, where == atPanic)
					}
					if where != atPanic && got != want {
						t.Fatalf("%s: Get(%d,%d) = %d, want %d", name, i, j, got, want)
					}
					n := 1 + rng.Intn(size.Rows+size.Cols)
					var run []int32
					if diagnosed(t, func() { run = v.Row(i, j, n) }) != (where == atPanic) {
						t.Fatalf("%s: run at (%d,%d) panicked: %v, model says %v", name, i, j, where != atPanic, where == atPanic)
					}
					if where != atBlock {
						if run != nil {
							t.Fatalf("%s: run at (%d,%d) has %d cells, want none (cell is not computed)", name, i, j, len(run))
						}
					} else {
						// A run is the one-row band of the cells it holds,
						// and as long as the request and the model allow.
						if m := len(run); m < 1 || m > n || c.stretch(i, j, m, 1, owner) != 1 || m < n && c.stretch(i, j, m+1, 1, owner) == 1 {
							t.Fatalf("%s: run at (%d,%d) n=%d has %d cells %v, the model disagrees", name, i, j, n, m, run)
						}
						for k, cell := range run {
							if _, _, val := c.resolve(i, j+k); cell != val {
								t.Fatalf("%s: run at (%d,%d) cell %d = %d, want %d", name, i, j, k, cell, val)
							}
						}
					}
					w := 1 + rng.Intn(1+rng.Intn(size.Cols+1))
					stops[checkBand(t, name, c, v, i, j, where, owner, w, 1+rng.Intn(size.Rows+1))]++
				}
			}
		}
	}
	for _, stop := range []string{"edge", "shadow", "hole", "leaves", "whole"} {
		if stops[stop] == 0 {
			t.Errorf("no band stopped for %q (stops %v): the property missed a case", stop, stops)
		}
	}
}

// stretch is the model's band: of the rows i, i+1, ... (at most n) how many
// hold the w-cell segment at column j whole in block owner, computed.
func (c *viewCase) stretch(i, j, w, n, owner int) int {
	for k := 0; k < n; k++ {
		for t := 0; t < w; t++ {
			if where, o, _ := c.resolve(i+k, j+t); where != atBlock || o != owner {
				return k
			}
		}
	}
	return n
}

// checkBand holds Band(i, j, w, n) against the model: a band of exactly the
// rows the model's stretch allows, each cell the model's value, and none
// when cell (i, j) is not computed or the first row leaves its block. It
// says why the band stopped: it is all n rows ("whole"), the first row
// leaves the block ("leaves"), or the next row has a cell in another block
// ("edge"), in the shadowing scratch block ("shadow") or a hole ("hole");
// "" when cell (i, j) is not computed.
func checkBand(t *testing.T, name string, c *viewCase, v *View[int32], i, j, where, owner, w, n int) string {
	t.Helper()
	var cells []int32
	var stride, m int
	if diagnosed(t, func() { cells, stride, m = v.Band(i, j, w, n) }) != (where == atPanic) {
		t.Fatalf("%s: band at (%d,%d) panicked: %v, model says %v", name, i, j, where != atPanic, where == atPanic)
	}
	want := 0
	if where == atBlock {
		want = c.stretch(i, j, w, n, owner)
	}
	if m != want || (m == 0) != (cells == nil) || m > 0 && len(cells) != (m-1)*stride+w {
		t.Fatalf("%s: band %dx%d at (%d,%d): m=%d len=%d stride=%d, the model holds %d rows", name, n, w, i, j, m, len(cells), stride, want)
	}
	for k := 0; k < m; k++ {
		for x, cell := range cells[k*stride : k*stride+w] {
			if _, _, val := c.resolve(i+k, j+x); cell != val {
				t.Fatalf("%s: band %dx%d at (%d,%d) cell (%d,%d) = %d, want %d", name, n, w, i, j, i+k, j+x, cell, val)
			}
		}
	}
	switch {
	case where != atBlock:
		return ""
	case m == n:
		return "whole"
	case m == 0:
		return "leaves"
	}
	stop := "edge"
	for x := 0; x < w; x++ {
		switch at, o, _ := c.resolve(i+m, j+x); {
		case at == atBoundary && i+m < c.size.Rows && j+x < c.size.Cols:
			return "hole"
		case at == atBlock && o == 0:
			stop = "shadow"
		}
	}
	return stop
}

func benchView(pat dag.Pattern) (*View[int32], *Block[int32], *Block[int32]) {
	const n = 256
	scratch := NewBlock[int32](dag.Rect{Row0: 64, Col0: 192, Rows: 16, Cols: 16})
	var in []*Block[int32]
	for c := 3; c >= 0; c-- {
		in = append(in, NewBlock[int32](dag.Rect{Row0: 64, Col0: c * 64, Rows: 64, Cols: 64}))
	}
	for r := 2; r < 4; r++ {
		in = append(in, NewBlock[int32](dag.Rect{Row0: r * 64, Col0: 192, Rows: 64, Cols: 64}))
	}
	return NewView(scratch, in, pat, dag.Square(n), func(i, j int) int32 { return 0 }), scratch, in[len(in)-1]
}

var sink int32

// BenchmarkViewGet is one read that hits the scratch block, one that hits
// the last of six input blocks (the single-entry cache serves it), and
// one that falls off the matrix, under a Dense and a Convex pattern.
func BenchmarkViewGet(b *testing.B) {
	for _, pat := range []dag.Pattern{dag.RowColumn{}, dag.Triangular{}} {
		v, scratch, far := benchView(pat)
		for _, at := range []struct {
			name string
			i, j int
		}{
			{"scratch", scratch.Rect.Row0 + 3, scratch.Rect.Col0 + 5},
			{"input", far.Rect.Row0 + 3, far.Rect.Col0 + 5},
			{"boundary", -1, 7},
		} {
			b.Run(pat.Name()+"/"+at.name, func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					sink += v.Get(at.i, at.j)
				}
			})
		}
	}
}

// BenchmarkViewRun is one run request of each axis, alternating between
// two input blocks so that every request pays the block scan, and the
// per-cell cost of summing a 64-cell run against 64 Get calls.
func BenchmarkViewRun(b *testing.B) {
	for _, pat := range []dag.Pattern{dag.RowColumn{}, dag.Triangular{}} {
		v, _, far := benchView(pat)
		b.Run(pat.Name()+"/request", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				row := v.Row(64+n%16, 100, 64)
				col, _, _ := v.Band(far.Rect.Row0, 192+n%16, 1, 64)
				sink += row[0] + col[0]
			}
		})
		b.Run(pat.Name()+"/row64", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for _, c := range v.Row(70, 128, 64) {
					sink += c
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/cell")
		})
		b.Run(pat.Name()+"/get64", func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for j := 128; j < 192; j++ {
					sink += v.Get(70, j)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/cell")
		})
	}
}

// Retarget zeroes only a rect that may hold a hole: the pattern's row order
// overwrites every stale cell of a hole-free one, but a hole's zero must
// reach the output block. A scratch block left full of another sub-block's
// cells, re-aimed at a diagonal Triangular sub-block and filled in row
// order, holds zero in every hole.
func TestRetargetZeroesHoles(t *testing.T) {
	pat := dag.Triangular{}
	v := NewView(NewBlock[int32](dag.Rect{Rows: 4, Cols: 4}), nil, pat, dag.Square(12), boundaryValue)
	for _, r := range []dag.Rect{{Row0: 0, Col0: 8, Rows: 4, Cols: 4}, {Row0: 4, Col0: 4, Rows: 4, Cols: 4}} {
		out := v.Out()
		out.Cells = out.Cells[:cap(out.Cells)]
		for k := range out.Cells {
			out.Cells[k] = stale // what the previous sub-task left
		}
		v.Retarget(r)
		pat.RowOrder(r, func(i, j0, j1 int) {
			for j := j0; j < j1; j++ {
				v.Out().Set(i, j, 1)
			}
		})
		for i := r.Row0; i < r.Row0+r.Rows; i++ {
			for j := r.Col0; j < r.Col0+r.Cols; j++ {
				want := int32(0)
				if pat.CellExists(i, j) {
					want = 1
				}
				if v.Out().At(i, j) != want {
					t.Fatalf("sub-block %v: cell (%d,%d) holds %d, want %d", r, i, j, v.Out().At(i, j), want)
				}
			}
		}
	}
}
