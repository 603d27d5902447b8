package core_test

import (
	"context"
	"encoding/binary"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// The runtime is generic over the cell type; these tests cover every
// non-int32 path end to end: struct cells over a custom fixed-width codec,
// uint64 bitmasks (CYK), float64 (Viterbi), plus the banded pattern whose
// block grid has holes (int64 runs as MatrixChain in core_test).

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

func TestRunViterbiFloatCellsPrevRow(t *testing.T) {
	v := dp.NewViterbi(24, 6, 40, 66)
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		// PrevRow requires one-row blocks.
		ProcPartition:   dag.Size{Rows: 1, Cols: 8},
		ThreadPartition: dag.Size{Rows: 1, Cols: 3},
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), v.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := v.Sequential()
	for i := range want {
		for j := range want[i] {
			if math.Abs(got[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("viterbi cell (%d,%d) = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// The decoded path must match the sequential decode.
	gp, wp := v.BestPath(got), v.BestPath(want)
	for k := range wp {
		if gp[k] != wp[k] {
			t.Fatalf("path diverges at step %d: %d != %d", k, gp[k], wp[k])
		}
	}
}

func TestRunViterbiMultiRowBlocksRejected(t *testing.T) {
	v := dp.NewViterbi(8, 4, 16, 67)
	cfg := core.Config{
		Slaves: 1, Threads: 1,
		ProcPartition:   dag.Square(4), // multi-row blocks: must be refused
		ThreadPartition: dag.Square(2),
		RunTimeout:      10 * time.Second,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PrevRow pattern accepted multi-row multi-column blocks")
		}
	}()
	_, _ = core.RunContext(context.Background(), v.Problem(), cfg)
}

func TestRunBandedEdit(t *testing.T) {
	a := dp.RandomDNA(80, 68)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.05, 69)
	e := dp.NewBandedEdit(a, b, 8)
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(16),
		ThreadPartition: dag.Square(5),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := e.Sequential()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("banded cell (%d,%d) = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	full := dp.NewEditDistance(a, b)
	if bd, fd := e.Distance(got), full.Distance(full.Sequential()); bd != fd {
		t.Fatalf("banded distance %d != true distance %d", bd, fd)
	}
}

func TestRunBandedNarrowManyHoles(t *testing.T) {
	// Width much smaller than the block size: most of the grid is holes.
	a := dp.RandomDNA(100, 70)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.02, 71)
	e := dp.NewBandedEdit(a, b, 3)
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(20),
		ThreadPartition: dag.Square(7),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := e.Sequential()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("banded cell (%d,%d) = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
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
