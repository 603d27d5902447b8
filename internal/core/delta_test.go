package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// cached makes cfg a cached run on a fresh store, scoped by key: it ships
// against its slaves' known-sets (delta shipping), as every cached run
// does, and the empty store answers no probe.
func cached(t *testing.T, cfg core.Config, key string) core.Config {
	t.Helper()
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache, cfg.CacheKey = store, key
	return cfg
}

// Delta shipping must preserve correctness for the pattern with the widest
// data regions (RowColumn: whole row + column per task) and actually skip
// repeated blocks. A cached run ships keyed, an uncached one in full.
func TestDeltaShippingSWGG(t *testing.T) {
	a := dp.RandomDNA(64, 101)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, 102)
	s := dp.NewSWGG(a, b)
	want := s.Sequential()

	run := func(delta bool) *core.Result[int32] {
		cfg := core.Config{
			Slaves: 3, Threads: 2,
			ProcPartition:   dag.Square(8), // 8x8 grid
			ThreadPartition: dag.Square(4),
			RunTimeout:      time.Minute,
		}
		if delta {
			cfg = cached(t, cfg, "swgg-delta")
		}
		res, err := core.RunContext(context.Background(), s.Problem(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		equalMatrices(t, "swgg-delta", res.Matrix(), want)
		return res
	}

	full := run(false)
	delta := run(true)
	if delta.Stats.BlocksSkipped == 0 {
		t.Fatalf("delta shipping skipped nothing: %+v", delta.Stats)
	}
	if delta.Stats.PayloadBytes >= full.Stats.PayloadBytes {
		t.Fatalf("delta payload %d not below full payload %d",
			delta.Stats.PayloadBytes, full.Stats.PayloadBytes)
	}
	if full.Stats.BlocksSkipped != 0 {
		t.Fatalf("full shipping reported skips: %+v", full.Stats)
	}
}

// Triangular pattern with delta shipping, plus every other pattern class
// via the geometry-corner apps.
func TestDeltaShippingAcrossPatterns(t *testing.T) {
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}

	nu := dp.NewNussinov(dp.RandomRNA(50, 103))
	res, err := core.RunContext(context.Background(), nu.Problem(), cached(t, cfg, "nussinov"))
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "nussinov-delta", res.Matrix(), nu.Sequential())

	k := dp.NewKnapsack(20, 50, 104)
	cfgK := cfg
	cfgK.ProcPartition = dag.Size{Rows: 5, Cols: 13}
	cfgK.ThreadPartition = dag.Size{Rows: 2, Cols: 5}
	resK, err := core.RunContext(context.Background(), k.Problem(), cached(t, cfgK, "knapsack"))
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "knapsack-delta", resK.Matrix(), k.Sequential())

	d := dp.NewDominance43(16, 105)
	cfgD := cfg
	cfgD.ProcPartition = dag.Square(4)
	cfgD.ThreadPartition = dag.Square(2)
	resD, err := core.RunContext(context.Background(), d.Problem(), cached(t, cfgD, "dominance"))
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "dominance-delta", resD.Matrix(), d.Sequential())
}

// Redistribution under delta shipping: the replacement slave has a
// different cache, so the master must ship it the full missing region.
func TestDeltaShippingWithCrash(t *testing.T) {
	a := dp.RandomDNA(60, 106)
	b := dp.RandomDNA(60, 107)
	e := dp.NewEditDistance(a, b)
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(4),
		TaskTimeout:     150 * time.Millisecond,
		CheckInterval:   20 * time.Millisecond,
		RunTimeout:      time.Minute,
		Faults:          core.FaultPlan{CrashOnTask: map[int]int{2: 2}},
	}
	res, err := core.RunContext(context.Background(), dp.Slow(e.Problem(), crashWork), cached(t, cfg, "editdist"))
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-delta-crash", res.Matrix(), e.Sequential())
	if res.Stats.Redistributions == 0 {
		t.Fatalf("no redistribution: %+v", res.Stats)
	}
}

// Delta shipping together with reclamation and checkpointing.
func TestDeltaShippingWithReclaim(t *testing.T) {
	s := dp.NewSWGG(dp.RandomDNA(48, 108), dp.RandomDNA(48, 109))
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(8),
		ThreadPartition: dag.Square(4),
		ReclaimBlocks:   true,
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), s.Problem(), cached(t, cfg, "swgg"))
	if err != nil {
		t.Fatal(err)
	}
	want := s.Sequential()
	if got := res.Store.Cell(47, 47); got != want[47][47] {
		t.Fatalf("corner %d != %d", got, want[47][47])
	}
	if res.Stats.BlocksSkipped == 0 || res.Stats.BlocksReclaimed == 0 {
		t.Fatalf("expected both skips and reclaims: %+v", res.Stats)
	}
}

// PolicyAffinity must stay correct while skipping even more traffic than
// delta shipping alone (it steers tasks toward slaves that hold the data).
func TestAffinityPolicy(t *testing.T) {
	a := dp.RandomDNA(64, 110)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, 111)
	s := dp.NewSWGG(a, b)
	want := s.Sequential()

	run := func(policy core.Policy, delta bool) core.Stats {
		cfg := core.Config{
			Slaves: 3, Threads: 2,
			ProcPartition:   dag.Square(8),
			ThreadPartition: dag.Square(4),
			Policy:          policy,
			RunTimeout:      time.Minute,
		}
		if delta {
			cfg = cached(t, cfg, "swgg-affinity")
		}
		// Blocks that take milliseconds keep all three slaves in the run;
		// with real kernels alone one slave can drain the whole delta run
		// before the others say hello, and then it ships too little for
		// the band below to mean anything.
		res, err := core.RunContext(context.Background(), dp.Slow(s.Problem(), crashWork), cfg)
		if err != nil {
			t.Fatal(err)
		}
		equalMatrices(t, "swgg-affinity", res.Matrix(), want)
		return res.Stats
	}

	deltaStats := run(core.PolicyDynamic, true)
	affStats := run(core.PolicyAffinity, false) // uncached, an affinity run still ships keyed
	if affStats.BlocksSkipped == 0 {
		t.Fatalf("affinity did not engage delta shipping: %+v", affStats)
	}
	// Affinity should ship at most as much as blind dynamic+delta
	// typically; we only assert it is in a sane band (scheduling is
	// nondeterministic, so exact comparisons would flake).
	if affStats.BlocksShipped > deltaStats.BlocksShipped*2 {
		t.Fatalf("affinity shipped wildly more than delta: %d vs %d",
			affStats.BlocksShipped, deltaStats.BlocksShipped)
	}
}

func TestAffinityWithFaults(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(60, 112), dp.RandomDNA(60, 113))
	cfg := core.Config{
		Slaves: 3, Threads: 2,
		ProcPartition:   dag.Square(10),
		ThreadPartition: dag.Square(4),
		Policy:          core.PolicyAffinity,
		TaskTimeout:     150 * time.Millisecond,
		CheckInterval:   20 * time.Millisecond,
		RunTimeout:      time.Minute,
		Faults:          core.FaultPlan{CrashOnTask: map[int]int{1: 3}},
	}
	res, err := core.RunContext(context.Background(), dp.Slow(e.Problem(), crashWork), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-affinity-crash", res.Matrix(), e.Sequential())
	if res.Stats.Redistributions == 0 {
		t.Fatalf("no redistribution: %+v", res.Stats)
	}
}
