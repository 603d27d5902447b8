//go:build soak

package fleet_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/testseed"
)

// TestSoakBatchedFaults hammers the batched dispatch path with membership
// churn while straggler mitigation is live: many short runs of two
// concurrent jobs on one elastic master, each run with a randomized batch
// bound, speculation always on, stealing on for half the runs, and a
// randomly chosen mid-run fault (abrupt kill, silent partition, graceful
// leave, heavy slowdown) against one of three workers. Every job must
// converge to the sequential matrix with Tasks equal to the vertex count
// and no leaked attempt or lease — a lost vertex hangs its job into the
// timeout, a double-counted one inflates Tasks, a mis-ordered batch or a
// result applied to the wrong job corrupts a matrix, and a speculative
// race that loses track of an attempt shows up in Leaked. Enable with
// scripts/ci.sh -soak (build tag "soak").
func TestSoakBatchedFaults(t *testing.T) {
	const runs = 200
	const jobs = 2
	const vertices = 64 // 8x8 processor grid of the shared test problem
	prob, want, req := testProblem(t)
	rng := rand.New(rand.NewSource(testseed.Seed(t, 1)))

	for run := 0; run < runs; run++ {
		batch := 1 + rng.Intn(8)
		fault := rng.Intn(4) // 0 kill, 1 partition+heal, 2 leave, 3 slow
		victim := rng.Intn(3)
		threshold := 3 + rng.Intn(vertices/2)
		steal := rng.Intn(2) == 1

		opts := testOptions()
		opts.Batch = batch
		opts.Speculate = true
		opts.CheckInterval = 10 * time.Millisecond
		opts.Steal = steal
		f, err := fleet.New[int32](opts)
		if err != nil {
			t.Fatal(err)
		}
		h := fleet.NewHarness(registryBuild, f.Addr(), testWorkerOptions(), taskDelay(2500*time.Microsecond))

		ctx, cancel := context.WithCancel(context.Background())
		faultAt := make(chan struct{})
		go func() {
			<-faultAt
			switch fault {
			case 0:
				h.Kill(victim)
			case 1:
				h.Partition(victim)
				// Hold the partition until the victim gives up on the
				// silent link: its read-idle bound is one interval past
				// the master's death threshold, so by then the heartbeat
				// sweep has declared it dead (Close ends the wait if the
				// jobs finish first).
				_ = h.Err(victim)
				h.Heal(victim)
			case 2:
				h.Leave(victim)
			case 3:
				// Not a membership fault: a straggler the speculative path
				// must race past.
				h.Slow(victim, 50*time.Millisecond)
			}
		}()

		for i := 0; i < 3; i++ {
			if _, err := h.Add(ctx); err != nil {
				t.Fatal(err)
			}
		}
		type outcome struct {
			res *fleet.Result[int32]
			err error
		}
		var out [jobs]outcome
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				res, err := runElastic(ctx, f, prob, req, 3, func(req *fleet.JobRequest) {
					req.Name = fmt.Sprintf("soak-%d", j)
					if j == 0 {
						req.OnProgress = progressTrigger(threshold, faultAt)
					}
				})
				out[j] = outcome{res, err}
			}(j)
		}
		wg.Wait()
		for j, o := range out {
			what := fmt.Sprintf("run %d job %d (batch=%d fault=%d victim=%d at=%d steal=%v)", run, j, batch, fault, victim, threshold, steal)
			if o.err != nil {
				t.Fatalf("%s: %v", what, o.err)
			}
			if o.res.Stats.Tasks != vertices {
				t.Fatalf("%s: tasks = %d, want %d (lost or double-counted vertex)\nstats: %v", what, o.res.Stats.Tasks, vertices, o.res.Stats)
			}
			if o.res.Stats.Leaked != 0 {
				t.Fatalf("%s: %d attempts/leases leaked\nstats: %v", what, o.res.Stats.Leaked, o.res.Stats)
			}
			equalMatrices(t, what, o.res.Store.Assemble(), want)
		}
		cancel()
		h.Close()
		f.Close()
	}
}
