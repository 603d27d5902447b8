package core_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// The runtime is generic over the cell type; these tests cover the
// non-int32 paths end to end: struct cells over a custom fixed-width codec
// and uint64 bitmasks (CYK) (int64 runs as MatrixChain in core_test); plus
// a user pattern beyond the library, a band whose block grid has holes.

// traceCell is an edit-distance cell with the move that reached it.
type traceCell struct {
	Dist int32
	Dir  uint8 // 0 diagonal, 1 from above, 2 from the left
}

// traceCodec packs a traceCell into five bytes, the way README's custom
// codec does.
type traceCodec struct{}

func (traceCodec) CellSize() int { return 5 }

func (traceCodec) AppendCells(dst []byte, cells []traceCell) ([]byte, error) {
	for _, c := range cells {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Dist))
		dst = append(dst, c.Dir)
	}
	return dst, nil
}

func (traceCodec) DecodeCells(src []byte, cells []traceCell) ([]byte, error) {
	if len(src) < 5*len(cells) {
		return nil, io.ErrUnexpectedEOF
	}
	for i := range cells {
		cells[i] = traceCell{Dist: int32(binary.LittleEndian.Uint32(src)), Dir: src[4]}
		src = src[5:]
	}
	return src, nil
}

// traceEdit is edit distance over traceCells, a per-cell kernel.
type traceEdit struct{ a, b []byte }

func (traceEdit) Pattern() dag.Pattern { return dag.Wavefront{} }

func (traceEdit) Boundary(i, j int) traceCell {
	switch {
	case i < 0 && j < 0:
		return traceCell{}
	case i < 0:
		return traceCell{Dist: int32(j) + 1, Dir: 2}
	}
	return traceCell{Dist: int32(i) + 1, Dir: 1}
}

func (k traceEdit) Cell(v *matrix.View[traceCell], i, j int) traceCell {
	return k.step(i, j, v.Get)
}

// step is the recurrence at (i, j), reading its neighbours through get.
func (k traceEdit) step(i, j int, get func(i, j int) traceCell) traceCell {
	best := get(i-1, j-1)
	if k.a[i] != k.b[j] {
		best.Dist++
	}
	best.Dir = 0
	if d := get(i-1, j).Dist + 1; d < best.Dist {
		best = traceCell{Dist: d, Dir: 1}
	}
	if d := get(i, j-1).Dist + 1; d < best.Dist {
		best = traceCell{Dist: d, Dir: 2}
	}
	return best
}

func TestRunStructCells(t *testing.T) {
	a := dp.RandomDNA(45, 61)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.25, 62)
	k := traceEdit{a, b}
	p := core.Problem[traceCell]{Name: "trace-edit", Size: dag.Size{Rows: len(a), Cols: len(b)}, Kernel: core.Cells[traceCell](k), Codec: traceCodec{}}
	cfg := core.Config{
		Slaves: 2, Threads: 3,
		ProcPartition:   dag.Square(12),
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := make([][]traceCell, len(a))
	for i := range want {
		want[i] = make([]traceCell, len(b))
		for j := range want[i] {
			want[i][j] = k.step(i, j, func(i, j int) traceCell {
				if i < 0 || j < 0 {
					return k.Boundary(i, j)
				}
				return want[i][j]
			})
			if got[i][j] != want[i][j] {
				t.Fatalf("cell (%d,%d) = %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if e := dp.NewEditDistance(a, b); want[len(a)-1][len(b)-1].Dist != e.Distance(e.Sequential()) {
		t.Fatal("the struct-cell recurrence is not edit distance")
	}
}

func TestRunCYKBitmaskCells(t *testing.T) {
	// A long balanced string plus random grammar stress.
	input := []byte("(()(()))((()))()(())")
	c := dp.NewCYK(dp.ParenGrammar(), input)
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(6),
		ThreadPartition: dag.Square(2),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), c.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := c.Sequential()
	for i := range want {
		for j := i; j < len(want[i]); j++ {
			if got[i][j] != want[i][j] {
				t.Fatalf("cyk cell (%d,%d) = %x, want %x", i, j, got[i][j], want[i][j])
			}
		}
	}
	if !c.Accepts(got) {
		t.Fatal("balanced string rejected")
	}
}

func TestRunCYKRandomGrammar(t *testing.T) {
	g := dp.RandomGrammar(12, 40, "ab", 64)
	input := dp.RandomSeq("ab", 30, 65)
	c := dp.NewCYK(g, input)
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(8),
		ThreadPartition: dag.Square(3),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), c.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := c.Sequential()
	for i := range want {
		for j := i; j < len(want[i]); j++ {
			if got[i][j] != want[i][j] {
				t.Fatalf("cyk cell (%d,%d) = %x, want %x", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// band is the wavefront restricted to the diagonal band |i - j| <= width,
// as a user outside the library declares it: holes off the diagonal, whole
// blocks among them that do not exist, and the wavefront's edge data
// regions, whose cells off the band are holes too.
type band struct {
	dag.Wavefront
	width int
}

func (band) Name() string     { return "test-band" }
func (band) Shape() dag.Shape { return dag.Convex }

func (b band) CellExists(i, j int) bool { return i-j <= b.width && j-i <= b.width }

// BlockExists: the diagonals block p spans, [minI-maxJ, maxI-minJ], meet
// [-width, width].
func (b band) BlockExists(g dag.Geometry, p dag.Pos) bool {
	if !g.InGrid(p) {
		return false
	}
	r := g.Rect(p)
	return r.Row0-(r.Col0+r.Cols-1) <= b.width && (r.Row0+r.Rows-1)-r.Col0 >= -b.width
}

// Precursors: north, west and north-west. The north-west edge is direct:
// with a narrow band the north and west blocks may not exist while the
// north-west one still feeds the block's first cell.
func (b band) Precursors(g dag.Geometry, p dag.Pos, buf []dag.Pos) []dag.Pos {
	for _, q := range []dag.Pos{{Row: p.Row - 1, Col: p.Col}, {Row: p.Row, Col: p.Col - 1}, {Row: p.Row - 1, Col: p.Col - 1}} {
		if b.BlockExists(g, q) {
			buf = append(buf, q)
		}
	}
	return buf
}

func (b band) DataDeps(g dag.Geometry, p dag.Pos, buf []dag.Pos) []dag.Pos {
	return b.Precursors(g, p, buf)
}

func (b band) RowOrder(r dag.Rect, visit func(i, j0, j1 int)) {
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		if j0, j1 := max(r.Col0, i-b.width), min(r.Col0+r.Cols, i+b.width+1); j0 < j1 {
			visit(i, j0, j1)
		}
	}
}

// bandInf is what a cell off the band reads as: unreachable.
const bandInf = int32(1) << 29

// bandEdit is edit distance on the band: exact whenever the true distance
// is at most the width.
type bandEdit struct {
	a, b  []byte
	width int
}

func (e bandEdit) Pattern() dag.Pattern { return band{width: e.width} }

func (e bandEdit) Boundary(i, j int) int32 {
	switch {
	case i < 0 && j < 0:
		return 0
	case i < 0:
		return int32(j) + 1
	case j < 0:
		return int32(i) + 1
	}
	return bandInf // inside the matrix, off the band
}

func (e bandEdit) Cell(v *matrix.View[int32], i, j int) int32 {
	sub := v.Get(i-1, j-1)
	if e.a[i] != e.b[j] {
		sub++
	}
	return min(sub, v.Get(i-1, j)+1, v.Get(i, j-1)+1, bandInf)
}

func (e bandEdit) problem() core.Problem[int32] {
	return core.Problem[int32]{
		Name:   fmt.Sprintf("band-%dx%d-w%d", len(e.a), len(e.b), e.width),
		Size:   dag.Size{Rows: len(e.a), Cols: len(e.b)},
		Kernel: core.Cells[int32](e),
		Codec:  matrix.BinaryCodec[int32]{},
	}
}

// sequential is the plain loop over the band; a hole stays zero, as in the
// runtime's matrix.
func (e bandEdit) sequential() [][]int32 {
	pat := band{width: e.width}
	d := make([][]int32, len(e.a))
	get := func(i, j int) int32 {
		if i < 0 || j < 0 || !pat.CellExists(i, j) {
			return e.Boundary(i, j)
		}
		return d[i][j]
	}
	for i := range d {
		d[i] = make([]int32, len(e.b))
		for j := range d[i] {
			if pat.CellExists(i, j) {
				sub := get(i-1, j-1)
				if e.a[i] != e.b[j] {
					sub++
				}
				d[i][j] = min(sub, get(i-1, j)+1, get(i, j-1)+1, bandInf)
			}
		}
	}
	return d
}

// A band wider than the distance computes it exactly, on blocks the band
// crosses and blocks it misses.
func TestRunBandedEdit(t *testing.T) {
	a := dp.RandomDNA(80, 68)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.05, 69)
	e := bandEdit{a, b, 8}
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(16),
		ThreadPartition: dag.Square(5),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), e.problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	if !reflect.DeepEqual(got, e.sequential()) {
		t.Fatal("banded matrix differs from the sequential loop")
	}
	full := dp.NewEditDistance(a, b)
	if bd, fd := got[len(a)-1][len(b)-1], full.Distance(full.Sequential()); bd != fd {
		t.Fatalf("banded distance %d != true distance %d", bd, fd)
	}
}

// A band much narrower than a block: most of the grid is holes. The band
// holds the model's invariants, at both levels.
func TestRunBandedNarrowManyHoles(t *testing.T) {
	a := dp.RandomDNA(100, 70)
	e := bandEdit{a, dp.MutateSeq(a, dp.DNAAlphabet, 0.02, 71), 3}
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(20),
		ThreadPartition: dag.Square(7),
		RunTimeout:      time.Minute,
	}
	for _, g := range []dag.Geometry{dag.MatrixGeometry(dag.Square(100), cfg.ProcPartition), dag.NewGeometry(dag.Rect{Row0: 20, Col0: 20, Rows: 20, Cols: 20}, cfg.ThreadPartition)} {
		if err := dag.Validate(e.Pattern(), g); err != nil {
			t.Fatal(err)
		}
	}
	res, err := core.RunContext(context.Background(), e.problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Matrix(), e.sequential()) {
		t.Fatal("banded matrix differs from the sequential loop")
	}
}

func TestRunNeedlemanWunsch(t *testing.T) {
	a := dp.RandomDNA(50, 72)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.25, 73)
	nw := dp.NewNeedlemanWunsch(a, b)
	cfg := core.Config{
		Slaves: 2, Threads: 3,
		ProcPartition:   dag.Square(13),
		ThreadPartition: dag.Square(5),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), nw.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := nw.Sequential()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("nw cell (%d,%d) = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	if al := nw.Traceback(got); al.Score != nw.GlobalScore(want) {
		t.Fatalf("traceback score %d != %d", al.Score, nw.GlobalScore(want))
	}
}
