package server_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
)

// TestServerCacheHitResubmission: with a store attached, resubmitting a
// completed job's exact spec answers from the whole-job cache — the
// result is marked Cached, identical to the computed one, and the
// server-layer hit shows on /metrics.
func TestServerCacheHitResubmission(t *testing.T) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startService(t, server.ManagerConfig{
		Run: fastRun(), MaxConcurrent: 2, QueueDepth: 4, Cache: store,
	})
	ctx := context.Background()
	spec := server.JobSpec{Kernel: "editdist", N: 48, Seed: 7}

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	first, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if first.Cached {
		t.Fatalf("first run claims to be cached: %+v", first)
	}

	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.ID == st.ID {
		t.Fatalf("resubmission reused job id %s", st.ID)
	}
	fin, err := c.Wait(ctx, st2.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait resubmission: %v", err)
	}
	if fin.State != server.StateDone {
		t.Fatalf("resubmission finished %s (%s), want done", fin.State, fin.Error)
	}
	second, err := c.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("resubmission result: %v", err)
	}
	if !second.Cached {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.Value != first.Value {
		t.Fatalf("cached value %d != computed value %d", second.Value, first.Value)
	}

	// A different spec must not hit.
	st3, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 48, Seed: 8})
	if err != nil {
		t.Fatalf("submit different: %v", err)
	}
	if _, err := c.Wait(ctx, st3.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait different: %v", err)
	}
	third, err := c.Result(ctx, st3.ID)
	if err != nil {
		t.Fatalf("different result: %v", err)
	}
	if third.Cached {
		t.Fatalf("different seed was served from cache: %+v", third)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`easyhps_cache_hits_total{layer="server"} 1`,
		`easyhps_cache_misses_total{layer="server"} 2`,
		"easyhps_cache_entries 2\n",
		"easyhps_cache_bytes",
		"easyhps_cache_evictions_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestResubmitAfterDoneHitsCache: a job is written through to the
// whole-job cache before it turns terminal, so a resubmission made the
// moment the first job is done is a server-layer cache hit — finished on
// return — and never a follower coalesced onto the first job's flight.
func TestResubmitAfterDoneHitsCache(t *testing.T) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.ManagerConfig{Run: fastRun(), MaxConcurrent: 1, QueueDepth: 2, Cache: store}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()

	// The window the ordering closes is narrow; each spec is one more
	// chance to land in it.
	const specs = 8
	for seed := int64(1); seed <= specs; seed++ {
		spec := server.JobSpec{Kernel: "editdist", N: 24, Seed: seed}
		first, _, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-first.Done()
		again, _, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-again.Done():
		default:
			t.Fatalf("seed %d: resubmission is %s on return, want done from the cache", seed, again.Status().State)
		}
		res, err := again.Result()
		if err != nil || !res.Cached {
			t.Fatalf("seed %d: resubmission result = %+v, %v; want a cached result", seed, res, err)
		}
	}
	if hits := store.Snapshot().Hits[cas.LayerServer]; hits != specs {
		t.Fatalf("server-layer cache hits = %d, want %d", hits, specs)
	}
	var metrics strings.Builder
	mgr.WriteMetrics(&metrics)
	if !strings.Contains(metrics.String(), "easyhps_jobs_coalesced_total 0\n") {
		t.Fatalf("resubmission was coalesced:\n%s", metrics.String())
	}
}

// TestServerCacheDisabledNoSeries: without a store, no easyhps_cache_
// series appear and resubmissions recompute.
func TestServerCacheDisabledNoSeries(t *testing.T) {
	_, c := startService(t, server.ManagerConfig{Run: fastRun(), MaxConcurrent: 2, QueueDepth: 4})
	ctx := context.Background()
	spec := server.JobSpec{Kernel: "lcs", N: 40, Seed: 3}
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		res, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Cached {
			t.Fatalf("run %d cached without a store: %+v", i, res)
		}
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if strings.Contains(text, "easyhps_cache_") {
		t.Fatalf("cache series exposed without a store:\n%s", text)
	}
}

// TestSingleFlightCoalescing: identical concurrent submissions collapse
// onto one computation even with the cache disabled. The followers get
// the leader's result marked Cached, and the coalesced counter counts
// them.
func TestSingleFlightCoalescing(t *testing.T) {
	_, c := startServiceOn(t, server.ManagerConfig{Run: slowRun(), MaxConcurrent: 1, QueueDepth: 8}, slowKernels())
	ctx := context.Background()
	spec := server.JobSpec{Kernel: "swgg", N: 48, Seed: 5}

	leader, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit leader: %v", err)
	}
	var followers []server.JobStatus
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit follower %d: %v", i, err)
		}
		followers = append(followers, st)
	}

	fin, err := c.Wait(ctx, leader.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait leader: %v", err)
	}
	if fin.State != server.StateDone {
		t.Fatalf("leader finished %s (%s)", fin.State, fin.Error)
	}
	lead, err := c.Result(ctx, leader.ID)
	if err != nil {
		t.Fatalf("leader result: %v", err)
	}
	if lead.Cached {
		t.Fatalf("leader marked cached: %+v", lead)
	}
	for i, f := range followers {
		fin, err := c.Wait(ctx, f.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait follower %d: %v", i, err)
		}
		if fin.State != server.StateDone {
			t.Fatalf("follower %d finished %s (%s)", i, fin.State, fin.Error)
		}
		res, err := c.Result(ctx, f.ID)
		if err != nil {
			t.Fatalf("follower %d result: %v", i, err)
		}
		if !res.Cached {
			t.Fatalf("follower %d not marked coalesced: %+v", i, res)
		}
		if res.Value != lead.Value {
			t.Fatalf("follower %d value %d != leader %d", i, res.Value, lead.Value)
		}
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if !strings.Contains(text, "easyhps_jobs_coalesced_total 2") {
		t.Errorf("metrics missing coalesced count:\n%s", text)
	}
}

// TestSingleFlightLeaderCancelPromotesFollower: cancelling the leader
// kills that job id only — a waiting follower is promoted to a fresh
// computation and still completes correctly.
func TestSingleFlightLeaderCancelPromotesFollower(t *testing.T) {
	_, c := startServiceOn(t, server.ManagerConfig{Run: slowRun(), MaxConcurrent: 1, QueueDepth: 8}, slowKernels())
	ctx := context.Background()

	// Occupy the one run slot so the leader stays queued and is
	// cancellable before it runs.
	blocker, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 64, Seed: 99})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}

	spec := server.JobSpec{Kernel: "lcs", N: 48, Seed: 4}
	leader, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit leader: %v", err)
	}
	follower, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit follower: %v", err)
	}

	if _, err := c.Cancel(ctx, leader.ID); err != nil {
		t.Fatalf("cancel leader: %v", err)
	}
	fin, err := c.Wait(ctx, leader.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait leader: %v", err)
	}
	if fin.State != server.StateCancelled {
		t.Fatalf("leader finished %s, want cancelled", fin.State)
	}

	ffin, err := c.Wait(ctx, follower.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait follower: %v", err)
	}
	if ffin.State != server.StateDone {
		t.Fatalf("promoted follower finished %s (%s), want done", ffin.State, ffin.Error)
	}
	res, err := c.Result(ctx, follower.ID)
	if err != nil {
		t.Fatalf("follower result: %v", err)
	}
	if res.Cached {
		t.Fatalf("promoted follower claims a cached result: %+v", res)
	}

	if _, err := c.Wait(ctx, blocker.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait blocker: %v", err)
	}
}

// TestRunCacheDirWarmsService: one job description, one cache. A cache
// directory filled by a one-shot run (easyhps-run -cache -cache-dir, whose
// key is the job's Digest) makes the same JobSpec a fully warm job on the
// service composed as easyhps-serve -cache -cache-dir -fleet composes it:
// a manager whose attached fleet holds that directory's store. The job
// absorbs every block without a dispatch and answers what the cold run
// did.
func TestRunCacheDirWarmsService(t *testing.T) {
	dir := t.TempDir()
	job := server.JobSpec{Kernel: "editdist", N: 48, Seed: 7}
	run := fastRun()

	filled, err := cas.NewStore(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	prob, _, err := server.NewRegistry().Build(job, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	cold := run
	cold.Cache, cold.CacheKey = filled, job.Digest()
	res, err := core.RunContext(context.Background(), prob, cold)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 || res.Stats.Tasks == 0 {
		t.Fatalf("the filling run was not cold: %+v", res.Stats)
	}
	m := res.Matrix()
	want := int64(m[len(m)-1][len(m[0])-1])

	// A new process: the service opens the directory afresh.
	store, err := cas.NewStore(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts := server.FleetOptions(run)
	opts.Cache = store
	fl, err := fleet.New[int32](opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	// The fleet has no member, so a vertex the cache does not hold fails
	// the job at its timeout.
	run.RunTimeout = 5 * time.Second
	mgr := server.NewManager(server.ManagerConfig{Run: run, Cache: store, Fleet: fl}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()

	j, _, err := mgr.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("answered from a whole-job entry, which the run does not write")
	}
	if got.Stats.Dispatches != 0 || got.Stats.CacheHits != res.Stats.Tasks {
		t.Fatalf("dispatches = %d, cache hits = %d; want 0 and all %d vertices", got.Stats.Dispatches, got.Stats.CacheHits, res.Stats.Tasks)
	}
	if got.Value != want {
		t.Fatalf("warm value %d, the cold run answered %d", got.Value, want)
	}
}

// TestServiceCacheWithinBudget: a job's result is an entry of the store's
// one LRU, so a store with a small MaxBytes stays within it however many
// distinct specs finish, and a resubmission whose result was evicted
// recomputes the same answer.
func TestServiceCacheWithinBudget(t *testing.T) {
	const budget = 1 << 10 // a few results of a few hundred bytes each
	store, err := cas.NewStore(cas.Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.ManagerConfig{Run: fastRun(), MaxConcurrent: 2, QueueDepth: 4, Cache: store}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()
	run := func(seed int64) *server.JobResult {
		t.Helper()
		j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 24, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		res, err := j.Result()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st := store.Snapshot(); st.Bytes > budget {
			t.Fatalf("seed %d: %d resident bytes over the %d budget", seed, st.Bytes, budget)
		}
		return res
	}

	const specs = 12
	want := make(map[int64]int64, specs)
	for seed := int64(1); seed <= specs; seed++ {
		want[seed] = run(seed).Value
	}
	// Newest first: the last results put are the ones still resident.
	var hits, recomputed int
	for seed := int64(specs); seed >= 1; seed-- {
		res := run(seed)
		if res.Value != want[seed] {
			t.Fatalf("seed %d resubmitted answers %d (cached %v), the first run %d", seed, res.Value, res.Cached, want[seed])
		}
		if res.Cached {
			hits++
		} else {
			recomputed++
		}
	}
	if hits == 0 || recomputed == 0 {
		t.Fatalf("%d resubmissions hit, %d recomputed: want both, some results resident and some evicted", hits, recomputed)
	}
}

// TestParentJobFileAnswersAfterRestart: a cache directory an earlier build
// wrote, with a job's result in a "<hex>.job" file of the entry format,
// answers that spec from the cache after a restart, and the file becomes
// an ordinary ".blk" entry.
func TestParentJobFileAnswersAfterRestart(t *testing.T) {
	dir := t.TempDir()
	spec := server.JobSpec{Kernel: "editdist", N: 24, Seed: 3}
	submit := func() *server.JobResult {
		t.Helper()
		store, err := cas.NewStore(cas.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		mgr := server.NewManager(server.ManagerConfig{Run: fastRun(), Cache: store}, nil)
		defer func() { _ = mgr.Shutdown(context.Background()) }()
		j, _, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		res, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := submit()
	blk := filepath.Join(dir, cas.JobKey(spec.Digest()).String()+".blk")
	job := strings.TrimSuffix(blk, ".blk") + ".job"
	if err := os.Rename(blk, job); err != nil {
		t.Fatal(err)
	}

	again := submit()
	if !again.Cached || again.Value != first.Value {
		t.Fatalf("after a restart the spec answered %d (cached %v), want %d from the cache", again.Value, again.Cached, first.Value)
	}
	if _, err := os.Stat(job); !os.IsNotExist(err) {
		t.Fatalf("the .job file is still there (%v)", err)
	}
	if _, err := os.Stat(blk); err != nil {
		t.Fatalf("the entry has no .blk file: %v", err)
	}
}
