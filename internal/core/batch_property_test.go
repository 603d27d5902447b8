package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/server"
	"repro/internal/testseed"
)

// Property: for EVERY registered DP kernel, batched-parallel execution is
// bit-identical to unbatched-parallel and to serial execution of the same
// problem, across randomized sizes, seeds, partitions and batch bounds.
// Batching is a transport-level optimization; if it ever changed a single
// cell, the dependency ordering of some batch was wrong.
func TestBatchMatchesUnbatchedAllKernels(t *testing.T) {
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for appIdx, app := range cli.Apps {
		app := app
		rng := rand.New(rand.NewSource(testseed.Seed(t, int64(9000+appIdx))))
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			for round := 0; round < rounds; round++ {
				n := 24 + rng.Intn(32)
				seed := rng.Int63n(1 << 30)
				batch := 2 + rng.Intn(7)
				pp := 4 + rng.Intn(8)
				tp := 2 + rng.Intn(4)
				label := fmt.Sprintf("%s n=%d seed=%d pp=%d tp=%d batch=%d", app, n, seed, pp, tp, batch)

				run := func(slaves, threads, b int) [][]int32 {
					prob, _, err := cli.BuildSpec(server.JobSpec{Kernel: app, N: n, Seed: seed})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					cfg := core.Config{
						Slaves:          slaves,
						Threads:         threads,
						ProcPartition:   dag.Square(pp),
						ThreadPartition: dag.Square(tp),
						Batch:           b,
						RunTimeout:      2 * time.Minute,
					}
					res, err := core.RunContext(context.Background(), prob, cfg)
					if err != nil {
						t.Fatalf("%s (slaves=%d batch=%d): %v", label, slaves, b, err)
					}
					return res.Matrix()
				}

				serial := run(1, 1, 1)
				unbatched := run(3, 2, 1)
				batched := run(3, 2, batch)
				equalMatrices(t, label+" [unbatched vs serial]", unbatched, serial)
				equalMatrices(t, label+" [batched vs serial]", batched, serial)
			}
		})
	}
}

// Accounting under batching: a clean batched run completes every vertex
// exactly once (Dispatches stays a per-vertex count), records at least one
// multi-vertex message, and counts task payload volume; the same run at
// Batch == 1 must not touch the batch counter at all.
func TestBatchStatsAccounting(t *testing.T) {
	prob, _, err := cli.BuildSpec(server.JobSpec{Kernel: "editdist", N: 48, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(8), // 6x6 grid
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	}

	cfg.Batch = 4
	res, err := core.RunContext(context.Background(), prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Tasks != 36 || s.Dispatches != 36 {
		t.Fatalf("batched run tasks/dispatches = %d/%d, want 36/36", s.Tasks, s.Dispatches)
	}
	if s.Redistributions != 0 || s.StaleResults != 0 {
		t.Fatalf("clean batched run shows recovery activity: %v", s)
	}
	if s.BatchMessages == 0 {
		t.Fatalf("batched run sent no batch messages: %v", s)
	}
	if s.TaskBytes == 0 {
		t.Fatalf("task bytes not accounted: %v", s)
	}

	cfg.Batch = 1
	res, err = core.RunContext(context.Background(), prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BatchMessages != 0 {
		t.Fatalf("unbatched run recorded %d batch messages", res.Stats.BatchMessages)
	}
	if res.Stats.Tasks != 36 || res.Stats.Dispatches != 36 {
		t.Fatalf("unbatched run tasks/dispatches = %d/%d, want 36/36", res.Stats.Tasks, res.Stats.Dispatches)
	}
}

// Batching must compose with the paper's other master-side features, which
// all hook the same dispatch/result path: delta shipping (known-set
// filtering happens per entry), affinity scheduling and memory
// reclamation.
func TestBatchComposesWithDeltaShippingAndReclaim(t *testing.T) {
	prob, _, err := cli.BuildSpec(server.JobSpec{Kernel: "nussinov", N: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.RunContext(context.Background(), prob, core.Config{
		Slaves: 1, Threads: 1,
		ProcPartition:   dag.Square(8),
		ThreadPartition: dag.Square(4),
		RunTimeout:      time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{
		cached(t, core.Config{Slaves: 3, Threads: 2, Batch: 5}, "nussinov"),
		{Slaves: 3, Threads: 2, Batch: 5, Policy: core.PolicyAffinity},
		{Slaves: 2, Threads: 2, Batch: 3, Policy: core.PolicyBlockCyclic},
	} {
		cfg.ProcPartition = dag.Square(8)
		cfg.ThreadPartition = dag.Square(4)
		cfg.RunTimeout = time.Minute
		prob, _, err := cli.BuildSpec(server.JobSpec{Kernel: "nussinov", N: 40, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunContext(context.Background(), prob, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		equalMatrices(t, fmt.Sprintf("batch with policy=%v cached=%v", cfg.Policy, cfg.Cache != nil),
			res.Matrix(), serial.Matrix())
	}
}
