package core_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// The runtime is generic over the cell type; these tests cover every
// non-int32 path end to end: struct cells over the gob codec (Gotoh),
// int64 (optimal BST), uint64 bitmasks (CYK), float64 (Viterbi), plus the
// banded pattern whose block grid has holes.

func TestRunGotohStructCells(t *testing.T) {
	a := dp.RandomDNA(45, 61)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.25, 62)
	g := dp.NewGotoh(a, b)
	cfg := core.Config{
		Slaves: 2, Threads: 3,
		ProcPartition:   dag.Square(12),
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), g.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := g.Sequential()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("gotoh cell (%d,%d) = %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if s := g.GlobalScore(got); s != g.GlobalScore(want) {
		t.Fatalf("global score %d != %d", s, g.GlobalScore(want))
	}
}

func TestRunOptimalBST(t *testing.T) {
	b := dp.NewOptimalBST(40, 50, 63)
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), b.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Cost(res.Matrix()), b.Cost(b.Sequential()); got != want {
		t.Fatalf("optimal BST cost %d != %d", got, want)
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
