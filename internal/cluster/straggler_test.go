package cluster_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/fleet"
)

// One of four workers is pathologically slow. With speculation on, the
// master must dispatch backup attempts for the straggler's vertices and
// finish correctly without a single overtime redistribution — the rescue
// is the speculative race, not the timeout path.
func TestSpeculationRescuesStraggler(t *testing.T) {
	prob, want, spec := testProblem(t)
	opts := testOptions()
	opts.Speculate = true
	opts.CheckInterval = 10 * time.Millisecond
	// TaskTimeout (20s from testOptions) stays far above the test runtime,
	// so any rescue observed here is speculation's.
	f := startMaster(t, opts)
	h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), testWorkerOptions(50*time.Microsecond))
	defer h.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := h.Add(ctx); err != nil {
			t.Fatal(err)
		}
	}
	h.Slow(0, 100*time.Millisecond)

	res, err := runElastic(ctx, f, prob, spec, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "speculation", res.Store.Assemble(), want)
	if res.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d, want 64", res.Stats.Tasks)
	}
	if res.Stats.Speculated == 0 {
		t.Fatal("no speculative backups dispatched for the straggler")
	}
	if res.Stats.Redistributions != 0 {
		t.Fatalf("redistributions = %d, want 0 (speculation must beat the timeout path)", res.Stats.Redistributions)
	}
	// Every race resolves: no worker died, so each backup is classified as
	// won or wasted by the arbitration.
	if got := res.Stats.SpecWon + res.Stats.SpecWasted; got != res.Stats.Speculated {
		t.Fatalf("won %d + wasted %d != speculated %d", res.Stats.SpecWon, res.Stats.SpecWasted, res.Stats.Speculated)
	}
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
}

// Batched dispatch piles backlog onto a slow member; a drained fast
// member announces hunger and the master must steal the queued tail
// toward it. The victim still computes the stolen entries, so their
// results arrive with retired attempt stamps and are dropped as stale —
// never applied twice.
func TestStealRebalancesBacklog(t *testing.T) {
	prob, want, spec := testProblem(t)
	opts := testOptions()
	opts.Steal = true
	opts.Batch = 8
	f := startMaster(t, opts)
	wopts := testWorkerOptions(50 * time.Microsecond)
	wopts.Run.Batch = 8
	wopts.HungerAfter = 20 * time.Millisecond
	h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), wopts)
	defer h.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}
	h.Slow(0, 30*time.Millisecond) // slow before the fast member joins so batches pile up here
	if _, err := h.Add(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := runElastic(ctx, f, prob, spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "steal", res.Store.Assemble(), want)
	if res.Stats.Tasks != 64 {
		t.Fatalf("tasks = %d, want 64", res.Stats.Tasks)
	}
	if res.Stats.Steals == 0 {
		t.Fatal("no backlog stolen toward the hungry member")
	}
	// The victim computed every stolen vertex anyway; each such result
	// carries a cancelled attempt and must fall into the stale branch.
	if res.Stats.StaleResults < res.Stats.Steals {
		t.Fatalf("stale = %d < steals = %d: a stolen vertex's late result was applied", res.Stats.StaleResults, res.Stats.Steals)
	}
	if res.Stats.Leaked != 0 {
		t.Fatalf("leaked = %d, want 0", res.Stats.Leaked)
	}
}
