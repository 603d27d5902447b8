package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/fleet"
	"repro/internal/server"
)

// startFleetService stands up the full fleet-mode stack: a shared fleet,
// a manager routing jobs onto it, and the HTTP API in front.
func startFleetService(t *testing.T, opts fleet.Options, cfg server.ManagerConfig) (*fleet.Fleet[int32], *server.Manager, *testClient) {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	fl, err := fleet.New[int32](opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet = fl
	mgr := server.NewManager(cfg, nil)
	ts := httptest.NewServer(server.NewHandler(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		fl.Close()
	})
	return fl, mgr, newTestClient(ts.URL, ts.Client())
}

// startFleetWorker joins one registry-driven worker to the fleet, its
// kernels slowed by perCell a cell, and tears it down with the test.
func startFleetWorker(t *testing.T, addr, name string, perCell time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		opts := fleet.WorkerOptions{Addr: addr, Name: name, Run: core.Config{Threads: 2}}
		_ = fleet.RunWorker(ctx, server.RegistryBuilder(server.NewSlowRegistry(perCell)), opts)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestFleetServiceInterleavesJobs is the acceptance test of fleet mode:
// two jobs submitted to the service make interleaved progress on one
// shared worker pool (their dispatch spans overlap in the per-job
// traces), both return bit-identical answers to the sequential
// references, and /metrics carries the per-job labelled series plus the
// fleet autoscaling signals.
func TestFleetServiceInterleavesJobs(t *testing.T) {
	fl, _, c := startFleetService(t,
		fleet.Options{HeartbeatInterval: 50 * time.Millisecond, Batch: 2},
		server.ManagerConfig{
			Run: core.Config{
				ProcPartition:   dag.Square(8),
				ThreadPartition: dag.Square(8),
				RunTimeout:      time.Minute,
			},
			MaxConcurrent: 4,
			QueueDepth:    8,
		})
	ctx := context.Background()

	// References computed sequentially.
	a := dp.RandomDNA(48, 41)
	b := dp.MutateSeq(a, dp.DNAAlphabet, 0.15, 42)
	edRef := dp.NewEditDistance(a, b)
	rna := dp.RandomRNA(48, 43)
	nuRef := dp.NewNussinov(rna)
	nuSeq := nuRef.Sequential()

	// Submit both jobs before any worker joins: each holds a run slot and
	// registers its DAG with the fleet, so when workers arrive the
	// fair-share policy must interleave the two dispatch streams.
	ed, err := c.Submit(ctx, server.JobSpec{Kernel: "editdist", SeqA: string(a), SeqB: string(b), Weight: 1})
	if err != nil {
		t.Fatalf("submit editdist: %v", err)
	}
	nu, err := c.Submit(ctx, server.JobSpec{Kernel: "nussinov", SeqA: string(rna), Weight: 2})
	if err != nil {
		t.Fatalf("submit nussinov: %v", err)
	}

	// About 1 ms an 8×8 block, so the two jobs overlap on the workers.
	startFleetWorker(t, fl.Addr(), "w0", 16*time.Microsecond)
	startFleetWorker(t, fl.Addr(), "w1", 16*time.Microsecond)

	var wg sync.WaitGroup
	for _, id := range []string{ed.ID, nu.ID} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
			defer cancel()
			final, err := c.Wait(wctx, id, 10*time.Millisecond)
			if err != nil {
				t.Errorf("wait %s: %v", id, err)
				return
			}
			if final.State != server.StateDone {
				t.Errorf("%s finished %s (%s), want done", id, final.State, final.Error)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Bit-identical answers per kernel.
	edRes, err := c.Result(ctx, ed.ID)
	if err != nil {
		t.Fatalf("editdist result: %v", err)
	}
	if want := int64(edRef.Distance(edRef.Sequential())); edRes.Value != want {
		t.Fatalf("edit distance %d, want %d", edRes.Value, want)
	}
	nuRes, err := c.Result(ctx, nu.ID)
	if err != nil {
		t.Fatalf("nussinov result: %v", err)
	}
	if want := int64(nuSeq[0][len(rna)-1]); nuRes.Value != want {
		t.Fatalf("nussinov pairs %d, want %d", nuRes.Value, want)
	}
	if edRes.Stats.Tasks == 0 || edRes.Stats.Dispatches == 0 {
		t.Fatalf("editdist run stats empty: %+v", edRes.Stats)
	}

	// No leaked leases or register entries in either job's ledger.
	for _, js := range fl.Snapshot().Jobs {
		if js.Stats.Leaked != 0 {
			t.Errorf("job %s leaked %d entries", js.Name, js.Stats.Leaked)
		}
	}

	// Interleaving: each job's dispatch span must overlap the other's.
	spans := make(map[string][2]int64)
	for _, id := range []string{ed.ID, nu.ID} {
		evs, err := c.Trace(ctx, id)
		if err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		first, last := int64(-1), int64(-1)
		for _, e := range evs {
			if e.Kind != "dispatch" {
				continue
			}
			if first < 0 {
				first = e.TMicros
			}
			last = e.TMicros
		}
		if first < 0 {
			t.Fatalf("trace of %s has no dispatch events", id)
		}
		spans[id] = [2]int64{first, last}
	}
	if spans[ed.ID][0] > spans[nu.ID][1] || spans[nu.ID][0] > spans[ed.ID][1] {
		t.Errorf("dispatch spans do not overlap: %s %v vs %s %v — the fleet ran the jobs serially",
			ed.ID, spans[ed.ID], nu.ID, spans[nu.ID])
	}

	// Per-job metrics and autoscaling signals on /metrics.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"easyhps_fleet_jobs{state=\"done\"} 2",
		"easyhps_fleet_jobs{state=\"running\"} 0",
		"easyhps_fleet_queue_depth 0",
		"easyhps_fleet_hunger_total",
		fmt.Sprintf("easyhps_job_vertices_done{job=%q}", ed.ID),
		fmt.Sprintf("easyhps_job_vertices_total{job=%q}", nu.ID),
		fmt.Sprintf("easyhps_job_deficit{job=%q}", ed.ID),
		fmt.Sprintf("easyhps_job_speculated_total{job=%q} 0", ed.ID),
		fmt.Sprintf("easyhps_job_steals_total{job=%q} 0", nu.ID),
		"easyhps_cluster_members{state=\"active\"} 2",
		"easyhps_jobs_finished_total{state=\"done\"} 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Both jobs completed every vertex: the done gauge equals the total.
	for _, id := range []string{ed.ID, nu.ID} {
		done := gaugeValue(t, text, fmt.Sprintf("easyhps_job_vertices_done{job=%q}", id))
		total := gaugeValue(t, text, fmt.Sprintf("easyhps_job_vertices_total{job=%q}", id))
		if done <= 0 || done != total {
			t.Errorf("%s: vertices done %d of %d, want all", id, done, total)
		}
	}
}

// gaugeValue extracts one sample's integer value from the exposition.
func gaugeValue(t *testing.T, text, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v int64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics missing series %q", series)
	return 0
}

// TestFleetServiceTraceErrors pins the trace endpoint's contract: 404 for
// unknown jobs, and a trace for every job the service ran, on an attached
// fleet or on the manager's own in-process members.
func TestFleetServiceTraceErrors(t *testing.T) {
	_, _, c := startFleetService(t,
		fleet.Options{},
		server.ManagerConfig{MaxConcurrent: 1, QueueDepth: 2})
	ctx := context.Background()
	if _, err := c.Trace(ctx, "job-404"); !isNotFound(err) {
		t.Fatalf("trace of unknown job = %v, want 404", err)
	}

	// A service without -fleet traces its jobs all the same.
	_, cc := startService(t, server.ManagerConfig{Run: fastRun(), MaxConcurrent: 1, QueueDepth: 2})
	st, err := cc.Submit(ctx, server.JobSpec{Kernel: "editdist", N: 16, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cc.Wait(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	evs, err := cc.Trace(ctx, st.ID)
	if err != nil {
		t.Fatalf("trace without a fleet = %v, want the job's trace", err)
	}
	dispatches := 0
	for _, e := range evs {
		if e.Kind == "dispatch" {
			dispatches++
		}
	}
	if dispatches == 0 {
		t.Fatalf("trace without a fleet has no dispatch event: %+v", evs)
	}
}
