package cluster_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/fleet"
)

// BenchmarkElasticRecovery measures the cost of elasticity: the "healthy"
// case is a full 4-worker run with heartbeats on (the steady-state
// overhead of the membership layer), and "kill-1-of-4" is the same run
// with one worker killed a few vertices in — the delta is the
// time-to-recover (detect the death, revoke the leases, recompute the
// lost vertices elsewhere).
func BenchmarkElasticRecovery(b *testing.B) {
	run := func(b *testing.B, kill bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prob, _, spec := testProblem(b)
			f := startMaster(b, testOptions())
			h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), testWorkerOptions(100*time.Microsecond))
			killAt := make(chan struct{})
			if kill {
				go func() {
					<-killAt
					h.Kill(0)
				}()
			}
			ctx, cancel := context.WithCancel(context.Background())
			b.StartTimer()
			for w := 0; w < 4; w++ {
				if _, err := h.Add(ctx); err != nil {
					b.Fatal(err)
				}
			}
			_, err := runElastic(ctx, f, prob, spec, 4, func(req *fleet.JobRequest) {
				if kill {
					req.OnProgress = progressTrigger(8, killAt)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			h.Close()
			f.Close()
			cancel()
			b.StartTimer()
		}
	}
	b.Run("healthy", func(b *testing.B) { run(b, false) })
	b.Run("kill-1-of-4", func(b *testing.B) { run(b, true) })
}

// swggBench is the Smith-Waterman instance for the straggler benchmark:
// an 8x8 processor grid whose narrow wavefront makes a slow worker gate
// whole diagonals.
func swggBench(tb testing.TB) (core.Problem[int32], cluster.Spec) {
	a := dp.RandomDNA(64, 61)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, 62)
	s := dp.NewSWGG(a, b)
	spec := cluster.Spec{App: "swgg", N: 64, Seed: 61, Proc: dag.Square(8), Thread: dag.Square(4)}
	return s.Problem(), spec
}

// BenchmarkStragglerSpeculation measures the scenario speculation exists
// for, on the SW kernel: four workers, one slowed ~10x per task by the
// proxy harness. With speculation off every wavefront diagonal the slow
// worker touches stalls behind it; with it on, backups race past the
// straggler. The spec-off/spec-on ns-per-op ratio is the makespan
// improvement recorded in EXPERIMENTS.md.
func BenchmarkStragglerSpeculation(b *testing.B) {
	run := func(b *testing.B, speculate bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prob, spec := swggBench(b)
			opts := testOptions()
			opts.Speculate = speculate
			opts.CheckInterval = 10 * time.Millisecond
			f := startMaster(b, opts)
			// 64 cells x 100µs ≈ 6.4ms of emulated work per vertex; the
			// 60ms proxy delay makes worker 0 roughly 10x slower.
			h := fleet.NewHarness(fleet.SpecBuilder(spec, prob), f.Addr(), testWorkerOptions(100*time.Microsecond))
			ctx, cancel := context.WithCancel(context.Background())
			b.StartTimer()
			// Slow worker 0 before the quorum completes, so it straggles
			// from its first task on.
			if _, err := h.Add(ctx); err != nil {
				b.Fatal(err)
			}
			h.Slow(0, 60*time.Millisecond)
			for w := 1; w < 4; w++ {
				if _, err := h.Add(ctx); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := runElastic(ctx, f, prob, spec, 4, nil); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			h.Close()
			f.Close()
			cancel()
			b.StartTimer()
		}
	}
	b.Run("spec-off", func(b *testing.B) { run(b, false) })
	b.Run("spec-on", func(b *testing.B) { run(b, true) })
}
