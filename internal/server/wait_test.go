package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// holdService starts a manager behind httptest with the hold hooks
// reporting the job id of every status request that enters (held) and
// leaves (released) its hold.
func holdService(t *testing.T, cfg server.ManagerConfig, reg *server.Registry) (mgr *server.Manager, ts *httptest.Server, held, released <-chan string) {
	t.Helper()
	// Room for every hold one test makes, so a hook never blocks a handler
	// whose event the test does not read.
	heldc, releasedc := make(chan string, 8), make(chan string, 8)
	t.Cleanup(server.SetHoldHooks(
		func(id string) { heldc <- id },
		func(id string) { releasedc <- id },
	))
	mgr = server.NewManager(cfg, reg)
	ts = httptest.NewServer(server.NewHandler(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return mgr, ts, heldc, releasedc
}

// gatedRun is fastRun whose jobs stop at their first progress report until
// the returned release is called; started receives when the first job gets
// there. The caller must release before the manager shuts down.
func gatedRun() (cfg core.Config, started <-chan struct{}, release func()) {
	gate := make(chan struct{})
	startedc := make(chan struct{}, 1) // one send: the first report of the run
	cfg = fastRun()
	var once sync.Once
	cfg.Progress = func(completed, total int) {
		once.Do(func() { startedc <- struct{}{} })
		<-gate
	}
	return cfg, startedc, sync.OnceFunc(func() { close(gate) })
}

// signalledSlowRun is slowRun, to run on slowKernels, reporting on started
// when its job runs.
func signalledSlowRun() (core.Config, <-chan struct{}) {
	started := make(chan struct{}, 1)
	cfg := slowRun()
	cfg.Progress = func(completed, total int) {
		select {
		case started <- struct{}{}:
		default:
		}
	}
	return cfg, started
}

type statusAnswer struct {
	code int
	st   server.JobStatus
	err  error
}

// getStatus sends GET /v1/jobs/{id}?wait=<wait> and delivers the answer.
func getStatus(ctx context.Context, ts *httptest.Server, id, wait string) <-chan statusAnswer {
	out := make(chan statusAnswer, 1)
	go func() {
		u := ts.URL + "/v1/jobs/" + id
		if wait != "" {
			u += "?" + url.Values{"wait": {wait}}.Encode()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			out <- statusAnswer{err: err}
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			out <- statusAnswer{err: err}
			return
		}
		defer resp.Body.Close()
		a := statusAnswer{code: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			a.err = json.NewDecoder(resp.Body).Decode(&a.st)
		}
		out <- a
	}()
	return out
}

// recv takes one value off ch, failing the test if none comes within 10s
// — a third of the longest hold these tests ask for.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	select {
	case v := <-ch:
		return v
	case <-timer.C:
		t.Fatalf("%s: nothing within 10s", what)
		var zero T
		return zero
	}
}

func TestStatusHoldReleasedByCompletion(t *testing.T) {
	run, started, release := gatedRun()
	defer release()
	mgr, ts, held, _ := holdService(t, server.ManagerConfig{Run: run, MaxConcurrent: 1, QueueDepth: 2}, nil)
	j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "job start")

	ans := getStatus(context.Background(), ts, j.ID, "1m") // capped at the 30s maximum
	if id := recv(t, held, "hold"); id != j.ID {
		t.Fatalf("held %s, want %s", id, j.ID)
	}
	release()
	a := recv(t, ans, "answer after completion")
	if a.err != nil || a.code != http.StatusOK || a.st.State != server.StateDone {
		t.Fatalf("held answer = %d %+v (%v), want 200 done", a.code, a.st, a.err)
	}
}

func TestStatusHoldReleasedByCancel(t *testing.T) {
	run, started := signalledSlowRun()
	mgr, ts, held, _ := holdService(t, server.ManagerConfig{Run: run, MaxConcurrent: 1, QueueDepth: 2}, slowKernels())
	j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "job start")

	ans := getStatus(context.Background(), ts, j.ID, "30s")
	recv(t, held, "hold")
	if _, err := newTestClient(ts.URL, ts.Client()).Cancel(context.Background(), j.ID); err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	a := recv(t, ans, "answer after DELETE")
	if a.err != nil || a.st.State != server.StateCancelled {
		t.Fatalf("held answer = %+v (%v), want cancelled", a.st, a.err)
	}
}

func TestStatusHoldPassesNonTerminal(t *testing.T) {
	run, started, release := gatedRun()
	defer release()
	mgr, ts, _, released := holdService(t, server.ManagerConfig{Run: run, MaxConcurrent: 1, QueueDepth: 2}, nil)
	j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "job start")

	const hold = 20 * time.Millisecond
	begin := time.Now()
	a := recv(t, getStatus(context.Background(), ts, j.ID, hold.String()), "answer at the hold")
	if a.err != nil || a.st.State != server.StateRunning {
		t.Fatalf("answer at the hold = %+v (%v), want running", a.st, a.err)
	}
	if took := time.Since(begin); took < hold {
		t.Fatalf("answered after %v, before the %v hold passed", took, hold)
	}
	if id := recv(t, released, "release"); id != j.ID {
		t.Fatalf("released %s, want %s", id, j.ID)
	}
}

// A client that goes away ends its hold: the handler returns at once, not
// when the hold passes (and the suite's leak check would catch it if not).
func TestStatusHoldReleasedByDisconnect(t *testing.T) {
	run, started, release := gatedRun()
	defer release()
	mgr, ts, held, released := holdService(t, server.ManagerConfig{Run: run, MaxConcurrent: 1, QueueDepth: 2}, nil)
	j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "job start")

	ctx, cancel := context.WithCancel(context.Background())
	ans := getStatus(ctx, ts, j.ID, "30s")
	recv(t, held, "hold")
	cancel()
	if a := recv(t, ans, "client side of the disconnect"); !errors.Is(a.err, context.Canceled) {
		t.Fatalf("cancelled request answered %+v (%v)", a.st, a.err)
	}
	if id := recv(t, released, "handler release"); id != j.ID {
		t.Fatalf("released %s, want %s", id, j.ID)
	}
	if st := j.Status().State; st != server.StateRunning {
		t.Fatalf("job %s after the disconnect, want still running", st)
	}
}

// easyhps-serve drains the manager before the listener: the drain settles
// every job, which releases every hold, so the listener's shutdown does
// not wait one out.
func TestStatusHoldReleasedByDrain(t *testing.T) {
	run, started := signalledSlowRun()
	mgr, ts, held, _ := holdService(t, server.ManagerConfig{Run: run, MaxConcurrent: 1, QueueDepth: 2}, slowKernels())
	j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "job start")

	ans := getStatus(context.Background(), ts, j.ID, "30s")
	recv(t, held, "hold")
	expired, cancel := context.WithCancel(context.Background())
	cancel() // no grace: the running job is cancelled at once
	if err := mgr.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain: %v, want the expired context's error", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer hcancel()
	if err := ts.Config.Shutdown(hctx); err != nil {
		t.Fatalf("listener shutdown after the drain: %v (a hold kept it waiting)", err)
	}
	a := recv(t, ans, "answer after the drain")
	if a.err != nil || a.st.State != server.StateCancelled {
		t.Fatalf("held answer = %+v (%v), want cancelled", a.st, a.err)
	}
}

func TestStatusWaitParameter(t *testing.T) {
	run, started, release := gatedRun()
	defer release()
	mgr, ts, held, _ := holdService(t, server.ManagerConfig{Run: run, MaxConcurrent: 1, QueueDepth: 2}, nil)
	j, _, err := mgr.Submit(server.JobSpec{Kernel: "editdist", N: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recv(t, started, "job start")

	for _, wait := range []string{"soon", "10", "1x", "-"} {
		if a := recv(t, getStatus(context.Background(), ts, j.ID, wait), "malformed wait"); a.code != http.StatusBadRequest {
			t.Errorf("wait=%q answered %d, want 400", wait, a.code)
		}
	}
	// A hold of zero or less is no hold: the job is running and stays so
	// until release, so only an immediate answer can arrive.
	for _, wait := range []string{"0", "0s", "-1s"} {
		a := recv(t, getStatus(context.Background(), ts, j.ID, wait), "wait<=0")
		if a.err != nil || a.code != http.StatusOK || a.st.State != server.StateRunning {
			t.Errorf("wait=%q answered %d %+v (%v), want 200 running", wait, a.code, a.st, a.err)
		}
	}
	if a := recv(t, getStatus(context.Background(), ts, "job-999", "30s"), "unknown job"); a.code != http.StatusNotFound {
		t.Errorf("unknown job with wait answered %d, want 404", a.code)
	}
	select {
	case id := <-held:
		t.Fatalf("request for %s was held", id)
	default:
	}
}
