package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/server"
)

// fastRun is a small cluster deployment that finishes test-sized jobs
// quickly.
func fastRun() core.Config {
	return core.Config{
		Slaves:          2,
		Threads:         2,
		ProcPartition:   dag.Square(16),
		ThreadPartition: dag.Square(8),
		RunTimeout:      30 * time.Second,
	}
}

// slowRun emulates per-cell work so a job stays running long enough to be
// cancelled or to hold a run slot.
func slowRun() core.Config {
	cfg := fastRun()
	cfg.ProcPartition = dag.Square(8)
	cfg.ThreadPartition = dag.Square(8)
	cfg.WorkDelayPerCell = time.Millisecond
	return cfg
}

func startService(t *testing.T, cfg server.ManagerConfig) (*server.Manager, *client.Client) {
	t.Helper()
	mgr := server.NewManager(cfg, nil)
	ts := httptest.NewServer(server.NewHandler(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return mgr, client.New(ts.URL, ts.Client())
}

// TestJobLifecycle submits a job over HTTP, polls it to completion and
// checks the result against the sequential reference.
func TestJobLifecycle(t *testing.T) {
	_, c := startService(t, server.ManagerConfig{Run: fastRun(), MaxConcurrent: 2, QueueDepth: 4})
	ctx := context.Background()

	a := dp.RandomDNA(48, 7)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, 8)
	spec := server.JobSpec{Kernel: "editdist", SeqA: string(a), SeqB: string(b)}

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The reply is a snapshot taken after the job was handed to a run slot:
	// on a loaded host it can already read running.
	if st.ID == "" || (st.State != server.StateQueued && st.State != server.StateRunning) {
		t.Fatalf("unexpected initial status %+v", st)
	}

	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.Progress.Total == 0 || final.Progress.Completed != final.Progress.Total {
		t.Fatalf("progress %+v, want completed == total > 0", final.Progress)
	}

	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	ref := dp.NewEditDistance(a, b)
	want := int64(ref.Distance(ref.Sequential()))
	if res.Value != want {
		t.Fatalf("edit distance %d, want %d", res.Value, want)
	}
	if res.Stats.Tasks == 0 || res.Stats.SubTasks == 0 {
		t.Fatalf("result stats empty: %+v", res.Stats)
	}
}

// TestConcurrentJobs runs several jobs of different kernels through the
// service at once; each must return its own correct answer.
func TestConcurrentJobs(t *testing.T) {
	_, c := startService(t, server.ManagerConfig{Run: fastRun(), MaxConcurrent: 3, QueueDepth: 8})
	ctx := context.Background()

	a := dp.RandomDNA(40, 3)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.15, 4)
	rna := dp.RandomRNA(40, 5)

	edRef := dp.NewEditDistance(a, b)
	lcsRef := dp.NewLCS(a, b)
	nuRef := dp.NewNussinov(rna)
	nuSeq := nuRef.Sequential()

	cases := []struct {
		spec server.JobSpec
		want int64
	}{
		{server.JobSpec{Kernel: "editdist", SeqA: string(a), SeqB: string(b)}, int64(edRef.Distance(edRef.Sequential()))},
		{server.JobSpec{Kernel: "lcs", SeqA: string(a), SeqB: string(b)}, int64(lcsRef.Sequential()[len(a)-1][len(b)-1])},
		{server.JobSpec{Kernel: "nussinov", SeqA: string(rna)}, int64(nuSeq[0][len(rna)-1])},
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	for _, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Submit(ctx, tc.spec)
			if err != nil {
				errs <- err
				return
			}
			final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			if final.State != server.StateDone {
				errs <- errors.New(tc.spec.Kernel + " finished " + string(final.State) + ": " + final.Error)
				return
			}
			res, err := c.Result(ctx, st.ID)
			if err != nil {
				errs <- err
				return
			}
			if res.Value != tc.want {
				errs <- errors.New(tc.spec.Kernel + ": wrong value")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCancelMidRun cancels a running job via DELETE and expects it to
// reach the cancelled state well before it could have finished.
func TestCancelMidRun(t *testing.T) {
	// The chained Progress callback fires once the master is actually
	// executing — strictly after the manager flipped the job to running —
	// so waiting on it replaces polling Status.
	started := make(chan struct{}, 1)
	cfg := slowRun()
	cfg.Progress = func(completed, total int) {
		select {
		case started <- struct{}{}:
		default:
		}
	}
	_, c := startService(t, server.ManagerConfig{Run: cfg, MaxConcurrent: 1, QueueDepth: 2})
	ctx := context.Background()

	// 64x64 cells at 1ms emulated work each: several seconds of work.
	st, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 64, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Wait for the job to actually start running.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started running")
	}
	if cur, err := c.Status(ctx, st.ID); err != nil || cur.State != server.StateRunning {
		t.Fatalf("status after start = (%+v, %v), want running", cur, err)
	}

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	final, err := c.Wait(waitCtx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after cancel: %v", err)
	}
	if final.State != server.StateCancelled {
		t.Fatalf("state after cancel %s, want cancelled", final.State)
	}
	if _, err := c.Result(ctx, st.ID); err == nil {
		t.Fatal("result of a cancelled job should error")
	}
	// Cancelling again reports the terminal state.
	if _, err := c.Cancel(ctx, st.ID); err == nil {
		t.Fatal("second cancel should report the job as finished")
	}
}

// TestAdmissionControl fills the single run slot and the bounded queue,
// expects 429 + Retry-After on the overflow submission, and then sees the
// backlog drain.
func TestAdmissionControl(t *testing.T) {
	started := make(chan struct{}, 1)
	cfg := slowRun()
	cfg.Progress = func(completed, total int) {
		select {
		case started <- struct{}{}:
		default:
		}
	}
	_, c := startService(t, server.ManagerConfig{
		Run:           cfg,
		MaxConcurrent: 1,
		QueueDepth:    1,
		RetryAfter:    2 * time.Second,
	})
	ctx := context.Background()

	// First slow job occupies the run slot...
	first, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 64, Seed: 1})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// ...wait until it is demonstrably executing (first Progress call),
	// so the next submission has the queue to itself.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first job never started")
	}
	// Second fills the queue.
	second, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 32, Seed: 2})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// Third must be rejected with backpressure.
	_, err = c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 32, Seed: 3})
	var busy *client.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("overflow submit returned %v, want BusyError", err)
	}
	if busy.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v, want >= 1s", busy.RetryAfter)
	}

	// Cancel the running job; the backlog must drain and the queued job
	// complete.
	if _, err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatalf("cancel first: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	final, err := c.Wait(waitCtx, second.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait for queued job: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("queued job finished %s (%s), want done", final.State, final.Error)
	}
	// The service accepts submissions again.
	if _, err := c.Submit(ctx, server.JobSpec{Kernel: "lcs", N: 16, Seed: 4}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestUniqueJobIDs checks that ids come from a monotonic counter: a
// cancelled-then-resubmitted job never reuses an id, even across
// rejections.
func TestUniqueJobIDs(t *testing.T) {
	mgr, c := startService(t, server.ManagerConfig{Run: fastRun(), MaxConcurrent: 1, QueueDepth: 4})
	ctx := context.Background()

	seen := make(map[string]bool)
	for i := 0; i < 5; i++ {
		st, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 16, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if seen[st.ID] {
			t.Fatalf("id %s reused", st.ID)
		}
		seen[st.ID] = true
		// Cancel some while queued/running, let others finish: ids must
		// stay unique regardless of lifecycle.
		if i%2 == 0 {
			_, _ = c.Cancel(ctx, st.ID)
		}
		if _, err := c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if got := len(mgr.List()); got != 5 {
		t.Fatalf("job table has %d entries, want 5", got)
	}
}

// TestMetricsExposition checks the counters surface on /metrics after
// traffic.
func TestMetricsExposition(t *testing.T) {
	_, c := startService(t, server.ManagerConfig{Run: fastRun(), MaxConcurrent: 2, QueueDepth: 4})
	ctx := context.Background()

	st, err := c.Submit(ctx, server.JobSpec{Kernel: "swgg", N: 32, Seed: 9})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"easyhps_jobs_finished_total{state=\"done\"} 1",
		"easyhps_jobs_submitted_total 1",
		"easyhps_queue_depth 0",
		"easyhps_job_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// Sub-task throughput counters must be non-zero after a completed run.
	if strings.Contains(text, "easyhps_subtasks_total 0\n") {
		t.Errorf("easyhps_subtasks_total still zero:\n%s", text)
	}
	if strings.Contains(text, "easyhps_tasks_total 0\n") {
		t.Errorf("easyhps_tasks_total still zero:\n%s", text)
	}
}

// TestClusterMetricsExposition checks that an attached fleet's membership
// snapshot and straggler counters surface on /metrics — and that nothing
// cluster-related is emitted when no fleet is attached.
func TestClusterMetricsExposition(t *testing.T) {
	mgr, c := startService(t, server.ManagerConfig{Run: fastRun(), MaxConcurrent: 1, QueueDepth: 2})
	ctx := context.Background()

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if strings.Contains(text, "easyhps_cluster_") {
		t.Fatalf("cluster metrics exposed without a fleet attached:\n%s", text)
	}

	mgr.SetFleetStats(func() fleet.Snapshot {
		return fleet.Snapshot{
			Members: core.Snapshot{
				States:        map[string]int{"active": 3, "suspect": 1, "dead": 1},
				Joins:         5,
				Leaves:        1,
				Deaths:        1,
				LeasesRevoked: 2,
			},
			Aggregate: engine.Stats{Speculated: 4, SpecWon: 3, SpecWasted: 1, Steals: 6},
		}
	})
	text, err = c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"easyhps_cluster_members{state=\"active\"} 3",
		"easyhps_cluster_members{state=\"suspect\"} 1",
		"easyhps_cluster_members{state=\"dead\"} 1",
		"easyhps_cluster_members{state=\"left\"} 0",
		"easyhps_cluster_joins_total 5",
		"easyhps_cluster_leaves_total 1",
		"easyhps_cluster_deaths_total 1",
		"easyhps_cluster_leases_revoked_total 2",
		"easyhps_speculative_dispatched_total 4",
		"easyhps_speculative_won_total 3",
		"easyhps_speculative_wasted_total 1",
		"easyhps_steals_total 6",
		"easyhps_speculative_waste_ratio 0.250",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestSubmitBodyBounded: a submit body longer than MaxCells plus the JSON
// envelope is refused with 413 before it is decoded, and admits no job;
// one just inside the bound reaches the usual spec checks.
func TestSubmitBodyBounded(t *testing.T) {
	const maxCells = 1 << 12
	mgr := server.NewManager(server.ManagerConfig{Run: fastRun(), MaxCells: maxCells}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()
	ts := httptest.NewServer(server.NewHandler(mgr))
	defer ts.Close()
	post := func(seqLen int) int {
		t.Helper()
		body := `{"kernel":"editdist","seq_a":"` + strings.Repeat("A", seqLen) + `","seq_b":"C"}`
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(maxCells + 64<<10); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d, want 413", code)
	}
	if n := len(mgr.List()); n != 0 {
		t.Fatalf("oversized body admitted %d jobs", n)
	}
	if code := post(maxCells + 1); code != http.StatusBadRequest {
		t.Fatalf("body inside the bound answered %d, want the 400 of an oversized matrix", code)
	}
}

// TestSubmitSizedBeforeInputs: a spec is sized from its fields before any
// input is generated and refused with the 400 of an oversized matrix. A
// generated pair of a billion bases costs no allocation of either, and an
// n whose square overflows is refused by every kernel that generates from
// n, instead of panicking in make.
func TestSubmitSizedBeforeInputs(t *testing.T) {
	mgr := server.NewManager(server.ManagerConfig{Run: fastRun()}, nil)
	defer func() { _ = mgr.Shutdown(context.Background()) }()
	h := server.NewHandler(mgr)
	post := func(body string) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		return rec.Code
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := post(`{"kernel":"editdist","n":1000000000}`)
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest {
		t.Fatalf("a billion-base pair answered %d, want 400", code)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a billion-base pair allocated %d bytes", alloc)
	}
	for _, k := range mgr.Registry().Names() {
		if code := post(fmt.Sprintf(`{"kernel":%q,"n":4611686018427387904}`, k.Name)); code != http.StatusBadRequest {
			t.Errorf("%s with n = 2^62 answered %d, want 400", k.Name, code)
		}
	}
	if n := len(mgr.List()); n != 0 {
		t.Fatalf("oversized specs admitted %d jobs", n)
	}
}

// TestGracefulShutdown drains a running job within the deadline.
func TestGracefulShutdown(t *testing.T) {
	mgr := server.NewManager(server.ManagerConfig{Run: fastRun(), MaxConcurrent: 1, QueueDepth: 2}, nil)
	ts := httptest.NewServer(server.NewHandler(mgr))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	st, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 48, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := mgr.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After the drain the job is terminal and new submissions are refused.
	final, err := mgr.Get(st.ID)
	if err != nil {
		t.Fatalf("get after shutdown: %v", err)
	}
	if s := final.Status().State; !s.Terminal() {
		t.Fatalf("job state after shutdown %s, want terminal", s)
	}
	if _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 16}); !errors.Is(err, server.ErrShuttingDown) {
		t.Fatalf("submit after shutdown returned %v, want ErrShuttingDown", err)
	}
}

// TestBadSpecs exercises the registry validation surface.
func TestBadSpecs(t *testing.T) {
	_, c := startService(t, server.ManagerConfig{Run: fastRun(), MaxCells: 1 << 12})
	ctx := context.Background()

	for name, spec := range map[string]server.JobSpec{
		"unknown kernel": {Kernel: "quicksort"},
		"missing inputs": {Kernel: "editdist"},
		"half a pair":    {Kernel: "lcs", SeqA: "ACGT"},
		"oversized":      {Kernel: "editdist", N: 1024},
	} {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("%s: submission accepted, want rejection", name)
		}
	}
	if _, err := c.Status(ctx, "job-999"); !client.IsNotFound(err) {
		t.Errorf("unknown job returned %v, want 404", err)
	}
}
