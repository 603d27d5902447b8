package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/engine"
)

// testConfig returns a small but genuinely multilevel deployment.
func testConfig() core.Config {
	return core.Config{
		Slaves:          3,
		Threads:         2,
		ProcPartition:   dag.Square(16),
		ThreadPartition: dag.Square(5),
		RunTimeout:      60 * time.Second,
	}
}

func equalMatrices(t *testing.T, name string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: cell (%d,%d) = %d, want %d", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestRunEditDistanceMatchesSequential(t *testing.T) {
	a := dp.RandomDNA(61, 1)
	b := dp.RandomDNA(53, 2)
	e := dp.NewEditDistance(a, b)
	res, err := core.RunContext(context.Background(), e.Problem(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist", res.Matrix(), e.Sequential())
	if res.Stats.Tasks == 0 || res.Stats.SubTasks == 0 {
		t.Fatalf("implausible stats: %v", res.Stats)
	}
}

func TestRunSWGGMatchesSequential(t *testing.T) {
	a := dp.RandomDNA(48, 3)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, 4)
	s := dp.NewSWGG(a, b)
	res, err := core.RunContext(context.Background(), s.Problem(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "swgg", res.Matrix(), s.Sequential())
}

func TestRunNussinovMatchesSequential(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(50, 5))
	res, err := core.RunContext(context.Background(), nu.Problem(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "nussinov", res.Matrix(), nu.Sequential())
}

func TestRunKnapsackMatchesSequential(t *testing.T) {
	k := dp.NewKnapsack(24, 60, 6)
	cfg := testConfig()
	cfg.ProcPartition = dag.Size{Rows: 6, Cols: 20}
	cfg.ThreadPartition = dag.Size{Rows: 2, Cols: 7}
	res, err := core.RunContext(context.Background(), k.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "knapsack", res.Matrix(), k.Sequential())
}

func TestRunDominanceMatchesSequential(t *testing.T) {
	d := dp.NewDominance43(20, 7)
	cfg := testConfig()
	cfg.ProcPartition = dag.Square(6)
	cfg.ThreadPartition = dag.Square(2)
	res, err := core.RunContext(context.Background(), d.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "dominance", res.Matrix(), d.Sequential())
}

func TestRunMatrixChainMatchesSequential(t *testing.T) {
	m := dp.NewMatrixChain(40, 2, 40, 8)
	cfg := testConfig()
	cfg.ProcPartition = dag.Square(12)
	cfg.ThreadPartition = dag.Square(4)
	res, err := core.RunContext(context.Background(), m.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Matrix()
	want := m.Sequential()
	for i := range want {
		for j := i; j < len(want[i]); j++ {
			if got[i][j] != want[i][j] {
				t.Fatalf("matrixchain cell (%d,%d) = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// The runtime must be correct for every geometry corner: partitions that
// do not divide the matrix, single-row/column grids, partitions larger
// than the matrix, one slave, one thread.
func TestRunGeometryCorners(t *testing.T) {
	a := dp.RandomDNA(23, 9)
	b := dp.RandomDNA(31, 10)
	e := dp.NewEditDistance(a, b)
	want := e.Sequential()
	configs := []core.Config{
		{Slaves: 1, Threads: 1, ProcPartition: dag.Square(23), ThreadPartition: dag.Square(23)}, // single block
		{Slaves: 2, Threads: 1, ProcPartition: dag.Size{Rows: 7, Cols: 9}, ThreadPartition: dag.Size{Rows: 3, Cols: 2}},
		{Slaves: 2, Threads: 3, ProcPartition: dag.Size{Rows: 23, Cols: 4}, ThreadPartition: dag.Size{Rows: 5, Cols: 4}}, // single block row
		{Slaves: 4, Threads: 2, ProcPartition: dag.Size{Rows: 1, Cols: 31}, ThreadPartition: dag.Size{Rows: 1, Cols: 1}}, // degenerate 1-row proc blocks
		{Slaves: 3, Threads: 2, ProcPartition: dag.Square(100), ThreadPartition: dag.Square(100)},                        // partitions larger than matrix
	}
	for k, cfg := range configs {
		cfg.RunTimeout = 60 * time.Second
		res, err := core.RunContext(context.Background(), e.Problem(), cfg)
		if err != nil {
			t.Fatalf("config %d: %v", k, err)
		}
		equalMatrices(t, "editdist", res.Matrix(), want)
	}
}

func TestRunTriangularGeometryCorners(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(37, 11))
	want := nu.Sequential()
	configs := []core.Config{
		{Slaves: 2, Threads: 2, ProcPartition: dag.Size{Rows: 5, Cols: 8}, ThreadPartition: dag.Size{Rows: 2, Cols: 3}}, // non-square blocks straddling diagonal
		{Slaves: 1, Threads: 4, ProcPartition: dag.Square(37), ThreadPartition: dag.Square(4)},                          // whole triangle on one slave
		{Slaves: 3, Threads: 1, ProcPartition: dag.Square(1), ThreadPartition: dag.Square(1)},                           // cell-granularity DAG
	}
	for k, cfg := range configs {
		cfg.RunTimeout = 120 * time.Second
		res, err := core.RunContext(context.Background(), nu.Problem(), cfg)
		if err != nil {
			t.Fatalf("config %d: %v", k, err)
		}
		equalMatrices(t, "nussinov", res.Matrix(), want)
	}
}

func TestRunBlockCyclicPolicyCorrect(t *testing.T) {
	a := dp.RandomDNA(40, 12)
	b := dp.RandomDNA(40, 13)
	s := dp.NewSWGG(a, b)
	want := s.Sequential()
	cfg := testConfig()
	cfg.Policy = core.PolicyBlockCyclic
	res, err := core.RunContext(context.Background(), s.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "swgg-bcw", res.Matrix(), want)
}

func TestRunBlockCyclicTriangular(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(33, 14))
	cfg := testConfig()
	cfg.Policy = core.PolicyBlockCyclic
	cfg.ProcPartition = dag.Square(8)
	cfg.ThreadPartition = dag.Square(3)
	res, err := core.RunContext(context.Background(), nu.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "nussinov-bcw", res.Matrix(), nu.Sequential())
}

func TestRunValidation(t *testing.T) {
	e := dp.NewEditDistance([]byte("AC"), []byte("GT"))
	p := e.Problem()
	if _, err := core.RunContext(context.Background(), p, core.Config{Slaves: 0, Threads: 1}); err == nil {
		t.Error("zero slaves accepted")
	}
	if _, err := core.RunContext(context.Background(), p, core.Config{Slaves: 1, Threads: 0}); err == nil {
		t.Error("zero threads accepted")
	}
	bad := p
	bad.Kernel = nil
	if _, err := core.RunContext(context.Background(), bad, testConfig()); err == nil {
		t.Error("nil kernel accepted")
	}
	bad = p
	bad.Codec = nil
	if _, err := core.RunContext(context.Background(), bad, testConfig()); err == nil {
		t.Error("nil codec accepted")
	}
}

func TestConfigCores(t *testing.T) {
	// Paper accounting: N + (N-1) + ct*(N-1) with N = Slaves+1.
	cfg := core.Config{Slaves: 3, Threads: 5}
	if got := cfg.Cores(); got != 4+3+15 {
		t.Fatalf("Cores = %d, want 22", got)
	}
}

func TestConfigForCores(t *testing.T) {
	// Experiment_2_4: 2 nodes, 4 cores -> 1 compute thread on 1 node.
	cfg, err := core.ConfigForCores(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Slaves != 1 || cfg.Threads != 1 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Cores() != 4 {
		t.Fatalf("round trip cores = %d", cfg.Cores())
	}
	// Experiment_5_53: 5 nodes, 53 cores -> 44 compute threads over 4 nodes.
	cfg, err = core.ConfigForCores(5, 53)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Slaves != 4 || cfg.Threads != 11 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := core.ConfigForCores(2, 3); err == nil {
		t.Error("too few cores accepted")
	}
	if _, err := core.ConfigForCores(1, 10); err == nil {
		t.Error("single node accepted")
	}
	if _, err := core.ConfigForCores(3, 8); err == nil {
		t.Error("non-divisible compute cores accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if core.PolicyDynamic.String() != "dynamic" || core.PolicyBlockCyclic.String() != "bcw" {
		t.Fatal("policy names wrong")
	}
}

func TestStatsString(t *testing.T) {
	s := core.Stats{Stats: engine.Stats{Tasks: 3, Elapsed: time.Second}}
	if str := s.String(); str == "" {
		t.Fatal("empty stats string")
	}
}
