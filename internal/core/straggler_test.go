package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// stragglerConfig keeps the timeout path far out of reach so any rescue
// observed in these tests comes from speculation or stealing, not from an
// overtime redistribution.
func stragglerConfig() core.Config {
	return core.Config{
		Slaves:          3,
		Threads:         2,
		ProcPartition:   dag.Square(6), // 8x8 grid on n=48
		ThreadPartition: dag.Square(3),
		TaskTimeout:     10 * time.Second,
		CheckInterval:   10 * time.Millisecond,
		RunTimeout:      120 * time.Second,
	}
}

// A mid-DAG vertex stalls far past the runtime profile's threshold while
// the task timeout stays out of reach. The speculative path must dispatch
// a backup that wins the race, so the run finishes without a single
// redistribution and every vertex counts exactly once.
func TestSpeculationRescuesStall(t *testing.T) {
	a := dp.RandomDNA(48, 44)
	b := dp.RandomDNA(48, 45)
	e := dp.NewEditDistance(a, b)
	cfg := stragglerConfig()
	cfg.Speculate = true
	// Vertex 20 (row 2, col 4) has 14 ancestors, enough completions to
	// warm the runtime profile before the stall begins.
	cfg.Faults = core.FaultPlan{StallFirstAttempt: map[int32]time.Duration{20: 400 * time.Millisecond}}

	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-speculate", res.Matrix(), e.Sequential())
	if res.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d, want 64 (each vertex exactly once)", res.Stats.Tasks)
	}
	if res.Stats.Speculated == 0 {
		t.Fatalf("stall did not trigger a speculative backup: %v", res.Stats)
	}
	if res.Stats.SpecWon == 0 {
		t.Fatalf("no backup beat the 400ms stall: %v", res.Stats)
	}
	if res.Stats.Redistributions != 0 {
		t.Fatalf("redistributions = %d, want 0 (speculation must beat the timeout path)", res.Stats.Redistributions)
	}
}

// Batched dispatch lets a slave stalled on a batch head pile up queued
// entries behind it. Once the other slave drains the ready stack and
// blocks in its dispatcher draw, the master must steal the stalled
// slave's backlog tail toward it.
func TestStealRebalancesBatchBacklog(t *testing.T) {
	a := dp.RandomDNA(48, 46)
	b := dp.RandomDNA(48, 47)
	e := dp.NewEditDistance(a, b)
	cfg := stragglerConfig()
	cfg.Slaves = 2
	cfg.Batch = 8
	cfg.Steal = true
	// Three stalls down one column give the steal path three separate
	// chances to observe a starved slave next to a deep backlog.
	cfg.Faults = core.FaultPlan{StallFirstAttempt: map[int32]time.Duration{
		27: 250 * time.Millisecond,
		35: 250 * time.Millisecond,
		43: 250 * time.Millisecond,
	}}

	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-steal", res.Matrix(), e.Sequential())
	if res.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d, want 64 (each vertex exactly once)", res.Stats.Tasks)
	}
	if res.Stats.Steals == 0 {
		t.Fatalf("no backlog stolen toward the starved slave: %v", res.Stats)
	}
	if res.Stats.Redistributions != 0 {
		t.Fatalf("redistributions = %d, want 0 (stealing must not trip timeouts)", res.Stats.Redistributions)
	}
}

// BlockCyclic ownership is static: there is no idle slave a backup or a
// stolen vertex could go to, so straggler mitigation must stay inert
// under the BCW policy even when enabled.
func TestMitigationInertUnderBlockCyclic(t *testing.T) {
	a := dp.RandomDNA(48, 48)
	b := dp.RandomDNA(48, 49)
	e := dp.NewEditDistance(a, b)
	cfg := stragglerConfig()
	cfg.Policy = core.PolicyBlockCyclic
	cfg.Speculate = true
	cfg.Steal = true
	cfg.Faults = core.FaultPlan{StallFirstAttempt: map[int32]time.Duration{20: 100 * time.Millisecond}}

	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-bcw", res.Matrix(), e.Sequential())
	if res.Stats.Speculated != 0 || res.Stats.Steals != 0 {
		t.Fatalf("straggler mitigation fired under BlockCyclic: %v", res.Stats)
	}
}
