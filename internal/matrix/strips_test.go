package matrix

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/testseed"
)

// stripCase is one task of a random geometry as the thread level meets it:
// of every data dependency the region its pattern declares, as the master
// ships it, maybe beside the whole block it was cut from, and a sub-block
// of the task's own block being computed — in a scratch block over the
// shared block, or in place.
type stripCase struct {
	pat     dag.Pattern
	size    dag.Size
	task    dag.Rect
	sub     dag.Rect
	shipped []*Block[int32]
}

// stripValue is what a computed cell holds; stale is in every hole.
func stripValue(i, j int) int32 { return int32(1 + i*1000 + j) }

func fillRect(pat dag.Pattern, r dag.Rect) *Block[int32] {
	b := NewBlock[int32](r)
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		for j := r.Col0; j < r.Col0+r.Cols; j++ {
			b.Set(i, j, stale)
			if pat.CellExists(i, j) {
				b.Set(i, j, stripValue(i, j))
			}
		}
	}
	return b
}

// stripCases returns every task with at least one dependency of pat over a
// random geometry; beside, when set, also ships the whole block of some
// dependencies of which a region is shipped, and a region of some shipped
// whole.
func stripCases(rng *rand.Rand, pat dag.Pattern, beside bool) []stripCase {
	size := dag.Size{Rows: 2 + rng.Intn(18), Cols: 2 + rng.Intn(18)}
	block := dag.Size{Rows: 1 + rng.Intn(size.Rows/2+1), Cols: 1 + rng.Intn(size.Cols/2+1)}
	geom := dag.MatrixGeometry(size, block)
	graph := dag.Build(pat, geom)
	var cases []stripCase
	for _, v := range graph.Verts {
		if len(v.DataPre) == 0 {
			continue
		}
		c := stripCase{pat: pat, size: size, task: geom.Rect(v.Pos)}
		for _, d := range v.DataPre {
			q := geom.PosOf(d)
			whole := fillRect(pat, geom.Rect(q))
			r := dag.DataRegion(pat, geom, v.Pos, q)
			if r.Empty() {
				continue
			}
			c.shipped = append(c.shipped, whole.Region(r))
			if beside && rng.Intn(3) == 0 {
				if r != whole.Rect {
					c.shipped = append(c.shipped, whole)
				} else {
					r.Cols = 1 + rng.Intn(r.Cols)
					c.shipped = append(c.shipped, whole.Region(r))
				}
			}
		}
		rng.Shuffle(len(c.shipped), func(a, b int) { c.shipped[a], c.shipped[b] = c.shipped[b], c.shipped[a] })
		tgeom := dag.NewGeometry(c.task, dag.Size{Rows: 1 + rng.Intn(c.task.Rows), Cols: 1 + rng.Intn(c.task.Cols)})
		c.sub = tgeom.Rect(dag.Pos{Row: rng.Intn(tgeom.Grid.Rows), Col: rng.Intn(tgeom.Grid.Cols)})
		cases = append(cases, c)
	}
	return cases
}

// views returns the view the thread level had before strips — a scratch
// block of the sub-block over the shared block, stale under it, and the
// shipped blocks — and the one it has at one thread: the task's block
// computed in place, over the strips.
func (c stripCase) views(s *Strips[int32]) (shipped, strips *View[int32]) {
	shared, scratch := fillRect(c.pat, c.task), fillRect(c.pat, c.sub)
	for i := c.sub.Row0; i < c.sub.Row0+c.sub.Rows; i++ {
		for j := c.sub.Col0; j < c.sub.Col0+c.sub.Cols; j++ {
			shared.Set(i, j, stale)
		}
	}
	shipped = NewView(scratch, append([]*Block[int32]{shared}, c.shipped...), c.pat, c.size, boundaryValue)
	out := fillRect(c.pat, c.task)
	strips = NewView(NewBlock[int32](c.sub), nil, c.pat, c.size, boundaryValue)
	strips.SetInputs(append([]*Block[int32]{out}, s.Join(c.shipped, c.task)...))
	strips.SetOutput(out)
	strips.Retarget(c.sub)
	return shipped, strips
}

// read is what a view answers at (i, j): Get, or the cells of a run of n
// rightwards or down — a band of width one — (nil: not computed), or the
// panic's diagnostic.
func read(v *View[int32], i, j, n int, kind int) (got []int32, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			got, panicked = nil, fmt.Sprint(r)
		}
	}()
	switch kind {
	case 0:
		return []int32{v.Get(i, j)}, ""
	case 1:
		return v.Row(i, j, n), ""
	}
	cells, stride, m := v.Band(i, j, 1, n)
	for k := 0; k < m; k++ {
		got = append(got, cells[k*stride])
	}
	return got, ""
}

// For every library pattern's data regions over random geometries with
// edge-clipped blocks — Triangular bands whose corners are diagonal blocks
// with holes among them, and regions shipped beside their whole blocks — a
// view over the strips, computing in place, answers every Get, Row and
// column run (a Band of width one) in and around the matrix cell for cell as the view over the shipped
// blocks with a scratch block does: the same cells, the same uncomputed
// cells, the same diagnostic for a cell nobody shipped. Its runs may be
// longer, never different.
func TestStripsAnswerAsShippedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 37)))
	patterns := []dag.Pattern{
		dag.Wavefront{}, dag.RowColumn{}, dag.Triangular{}, dag.Dominance{}, dag.RowOnly{}, dag.Chain{},
	}
	s := NewStrips[int32](dag.Square(20), dag.Square(20))
	joined := 0
	for _, pat := range patterns {
		for round := 0; round < 8; round++ {
			for _, c := range stripCases(rng, pat, round%2 == 1) {
				shipped, strips := c.views(s)
				if len(strips.in)-1 < len(c.shipped) {
					joined++
				}
				name := fmt.Sprintf("%s %v task %v sub %v", pat.Name(), c.size, c.task, c.sub)
				for i := -1; i <= c.size.Rows; i++ {
					for j := -1; j <= c.size.Cols; j++ {
						for kind := 0; kind < 3; kind++ {
							n := 1 + rng.Intn(c.size.Rows+c.size.Cols)
							want, wantPanic := read(shipped, i, j, n, kind)
							got, gotPanic := read(strips, i, j, n, kind)
							if wantPanic != gotPanic || (want == nil) != (got == nil) {
								t.Fatalf("%s: read %d at (%d,%d): strips answer %v %q, shipped blocks %v %q", name, kind, i, j, got, gotPanic, want, wantPanic)
							}
							for k := range got {
								di, dj := 0, k
								if kind == 2 {
									di, dj = k, 0
								}
								if w, _ := read(shipped, i+di, j+dj, 1, 0); got[k] != w[0] {
									t.Fatalf("%s: read %d at (%d,%d) n=%d: cell %d is %d, the shipped blocks hold %d", name, kind, i, j, n, k, got[k], w[0])
								}
							}
							if len(got) < len(want) {
								t.Fatalf("%s: read %d at (%d,%d) n=%d: a run over strips is shorter (%d) than over the shipped blocks (%d)", name, kind, i, j, n, len(got), len(want))
							}
						}
					}
				}
			}
		}
	}
	if joined == 0 {
		t.Fatal("no task joined a band")
	}
}

// The wavefront's row, column and corner are three bands of one block
// each, and a region beside the whole block it was cut from is a band
// that does not tile a stretch: they come back as the very slice, and
// nothing is copied.
func TestStripsPassWavefrontRegionsThrough(t *testing.T) {
	pat := dag.Wavefront{}
	geom := dag.MatrixGeometry(dag.Square(12), dag.Square(4))
	p := dag.Pos{Row: 1, Col: 1}
	var regions []*Block[int32]
	for _, q := range []dag.Pos{{Row: 0, Col: 1}, {Row: 1, Col: 0}, {Row: 0, Col: 0}} {
		regions = append(regions, fillRect(pat, geom.Rect(q)).Region(dag.DataRegion(pat, geom, p, q)))
	}
	west := fillRect(pat, geom.Rect(dag.Pos{Row: 1, Col: 0}))
	for _, in := range [][]*Block[int32]{regions, {west.Region(dag.Rect{Row0: 4, Col0: 3, Rows: 4, Cols: 1}), west}} {
		s := NewStrips[int32](geom.Block, dag.Square(12))
		out := s.Join(in, geom.Rect(p))
		if len(out) != len(in) || &out[0] != &in[0] {
			t.Fatalf("Join returned %v, want the input slice %v itself", out, in)
		}
		if s.row.Cells != nil || s.col.Cells != nil {
			t.Fatalf("Join of %v allocated a strip", in)
		}
	}
}

// A Triangular task's row band and column band are one strip each, the
// block between them passes through, and the strips are copies: the next
// Join may rewrite them without touching a shipped block.
func TestStripsJoinTriangularBands(t *testing.T) {
	pat := dag.Triangular{}
	geom := dag.MatrixGeometry(dag.Square(14), dag.Square(4)) // the last block row and column are clipped to 2
	p := dag.Pos{Row: 0, Col: 3}
	graph := dag.Build(pat, geom)
	var in []*Block[int32]
	for _, d := range graph.Vertex(geom.ID(p)).DataPre {
		q := geom.PosOf(d)
		in = append(in, fillRect(pat, geom.Rect(q)).Region(dag.DataRegion(pat, geom, p, q)))
	}
	s := NewStrips[int32](geom.Block, dag.Square(14))
	out := s.Join(in, geom.Rect(p))
	want := []dag.Rect{{Row0: 0, Col0: 0, Rows: 4, Cols: 12}, {Row0: 4, Col0: 12, Rows: 10, Cols: 2}}
	if len(out) < 2 || out[0].Rect != want[0] || out[1].Rect != want[1] {
		t.Fatalf("Join returned %v, want strips %v first", out, want)
	}
	for _, b := range out[2:] {
		if b.Rect.Row0 == 0 || b.Rect.Col0 == 12 {
			t.Fatalf("block %v of a joined band passed through", b)
		}
	}
	for _, strip := range out[:2] {
		r := strip.Rect
		for i := r.Row0; i < r.Row0+r.Rows; i++ {
			for j := r.Col0; j < r.Col0+r.Cols; j++ {
				if want := fillRect(pat, dag.Rect{Row0: i, Col0: j, Rows: 1, Cols: 1}).Cells[0]; strip.At(i, j) != want {
					t.Fatalf("strip %v holds %d at (%d,%d), want %d", r, strip.At(i, j), i, j, want)
				}
			}
		}
		clear(strip.Cells)
	}
	for _, b := range in {
		if !slices.Equal(b.Cells, fillRect(pat, b.Rect).Cells) {
			t.Fatalf("clearing a strip cleared cells of shipped block %v", b)
		}
	}
}
