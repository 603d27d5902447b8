package core_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// countWorkerHashes counts, until the test ends, every payload a worker
// hashes to name a block. The hook is package state: callers are not
// parallel.
func countWorkerHashes(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	t.Cleanup(core.SetHashHook(func([]byte) { n.Add(1) }))
	return &n
}

// A cached job hashes each result once, on the master: a worker names its
// own outputs from the master's references and hashes nothing. Both of the
// master's in-process members (a cached RunContext) and both worker
// processes of a fleet job over loopback TCP resolve their references
// without a hash, while the master puts every committed block in the
// store under the key it derived — one entry per vertex, since a block's
// payload carries its rect — and the matrix is the sequential one.
func TestWorkerHashesNothingItComputed(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(96, 41), dp.RandomDNA(96, 42))
	want := e.Sequential()
	proc := dag.Square(16)
	verts := int64(dag.MatrixGeometry(e.Problem().Size, proc).Grid.Cells())
	newStore := func() *cas.Store {
		store, err := cas.NewStore(cas.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	check := func(t *testing.T, hashed int64, store *cas.Store, st core.Stats, got [][]int32) {
		t.Helper()
		what := t.Name()
		equalMatrices(t, what, got, want)
		if hashed != 0 || int64(store.Snapshot().Entries) != verts || st.Tasks != verts || st.BlocksSkipped == 0 {
			t.Fatalf("%s: workers hashed %d payloads, the master named %d blocks of %d vertices (%d computed, %d references); want 0 and every vertex",
				what, hashed, store.Snapshot().Entries, verts, st.Tasks, st.BlocksSkipped)
		}
	}

	t.Run("runcontext", func(t *testing.T) {
		hashed := countWorkerHashes(t)
		store := newStore()
		res, err := core.RunContext(context.Background(), e.Problem(), core.Config{
			Slaves: 2, Threads: 1, ProcPartition: proc, Cache: store, CacheKey: "naming", RunTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, hashed.Load(), store, res.Stats, res.Matrix())
	})

	t.Run("fleet", func(t *testing.T) {
		hashed := countWorkerHashes(t)
		store := newStore()
		f, err := fleet.New[int32](fleet.Options{Addr: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		var workers sync.WaitGroup
		defer workers.Wait()
		defer f.Close() // dismisses the workers before they are waited for
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		build := func(fleet.JobMeta) (core.Problem[int32], error) { return e.Problem(), nil }
		for range 2 {
			workers.Add(1)
			go func() {
				defer workers.Done()
				_ = fleet.RunWorker(ctx, build, fleet.WorkerOptions{Addr: f.Addr(), Run: core.Config{Threads: 1}})
			}()
		}
		if err := f.Registry().WaitLive(ctx, 2); err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(ctx, e.Problem(), fleet.JobRequest{Name: "naming", Proc: proc, CacheKey: "naming"})
		if err != nil {
			t.Fatal(err)
		}
		check(t, hashed.Load(), store, res.Stats, res.Store.Assemble())
	})
}

// A member's known-set spans its attached jobs, so a job may reference a
// block its member computed for another job: one the job took from the
// cache. The worker holds that block unnamed under the other job, and must
// check the name, never trust it. Two identical cached jobs share one
// simulated worker (the shipped driver and worker path, on a deterministic
// schedule), the second submitted once the first has committed blocks; in
// the second case the first is cancelled, its job-end frame reaching the
// worker before the second reads its block. (A job that runs to its end
// leaves no block of its own unreferenced: every successor of a block is
// computed by one of the jobs, whose task references the block first.)
// Either way the check path is taken and the results are the sequential
// matrix.
func TestWorkerChecksAnotherJobsBlock(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(64, 1), dp.RandomDNA(64, 2))
	want := e.Sequential()
	ms := time.Millisecond
	for _, c := range []struct {
		name   string
		cancel time.Duration // of the first job; 0: it runs to its end
	}{{"running", 0}, {"detached", 11*ms + ms/4}} {
		t.Run(c.name, func(t *testing.T) {
			store, err := cas.NewStore(cas.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cl := sim.New(sim.Options{Workers: 1, Cache: store, Seed: 1})
			spec := sim.JobSpec{Problem: e.Problem(), Proc: dag.Square(8), CacheKey: "cross-job"}
			spec.Name = "first"
			first, err := cl.Submit(0, spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Name = "second"
			second, err := cl.Submit(9*ms+ms/2, spec)
			if err != nil {
				t.Fatal(err)
			}
			if c.cancel > 0 {
				cl.CancelAt(c.cancel, "first")
			}
			var checked, detached int
			defer core.SetHashHook(func([]byte) {
				checked++
				if first.Err() != nil {
					detached++
				}
			})()
			if err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			equalMatrices(t, c.name+"/second", second.Result(), want)
			if c.cancel == 0 {
				equalMatrices(t, c.name+"/first", first.Result(), want)
			} else if first.Err() == nil || detached == 0 {
				t.Fatalf("first job ended with %v, %d of %d checks after its end; want it cancelled before a check", first.Err(), detached, checked)
			}
			if checked == 0 {
				t.Fatal("no reference named another job's block: the check path was not taken")
			}
		})
	}
}

// A member that computed one vertex twice — its stalled first attempt timed
// out and came back to it — holds two outputs at that rect, and the master
// accepted only one of them: the successor's reference is checked, one
// hash, and the result is the sequential matrix.
func TestWorkerChecksADuplicateOutput(t *testing.T) {
	hashed := countWorkerHashes(t)
	e := dp.NewEditDistance(dp.RandomDNA(64, 43), dp.RandomDNA(64, 44))
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunContext(context.Background(), e.Problem(), core.Config{
		Slaves: 1, Threads: 1, ProcPartition: dag.Square(16), Cache: store, CacheKey: "duplicate",
		TaskTimeout: 100 * time.Millisecond, CheckInterval: 5 * time.Millisecond, RunTimeout: time.Minute,
		Faults: core.FaultPlan{StallFirstAttempt: map[int32]time.Duration{5: 400 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "duplicate", res.Matrix(), e.Sequential())
	if res.Stats.Redistributions != 1 || res.Stats.StaleResults != 1 || hashed.Load() != 1 {
		t.Fatalf("%d redistributions, %d stale results, %d payloads hashed; want one each", res.Stats.Redistributions, res.Stats.StaleResults, hashed.Load())
	}
}
