package server_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
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
		`easyhps_cache_entries{kind="job"} 2`,
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
		first, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-first.Done()
		again, err := mgr.Submit(spec)
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
	_, c := startService(t, server.ManagerConfig{Run: slowRun(), MaxConcurrent: 1, QueueDepth: 8})
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
	_, c := startService(t, server.ManagerConfig{Run: slowRun(), MaxConcurrent: 1, QueueDepth: 8})
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
