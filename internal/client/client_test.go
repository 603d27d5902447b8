package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// stub serves handler on httptest and returns a client of it.
func stub(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return New(ts.URL+"/", ts.Client()) // a trailing slash is trimmed
}

// statusSequence answers successive status requests with states, the last
// repeated, and records every request's wait parameter.
type statusSequence struct {
	mu     sync.Mutex
	states []server.State
	waits  []string
}

func (s *statusSequence) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.waits = append(s.waits, r.URL.Query().Get("wait"))
	st := s.states[min(len(s.waits), len(s.states))-1]
	s.mu.Unlock()
	_ = json.NewEncoder(w).Encode(server.JobStatus{ID: strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), State: st})
}

func (s *statusSequence) requests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.waits...)
}

func TestWaitReturnsFirstTerminalAnswer(t *testing.T) {
	seq := &statusSequence{states: []server.State{server.StateDone}}
	c := stub(t, seq.ServeHTTP)
	st, err := c.Wait(context.Background(), "job-1", time.Second)
	if err != nil || st.State != server.StateDone || st.ID != "job-1" {
		t.Fatalf("Wait = %+v, %v; want job-1 done", st, err)
	}
	if n := len(seq.requests()); n != 1 {
		t.Fatalf("Wait made %d requests for a job done on the first answer", n)
	}
}

func TestWaitReasksAfterNonTerminal(t *testing.T) {
	seq := &statusSequence{states: []server.State{server.StateQueued, server.StateRunning, server.StateFailed}}
	c := stub(t, seq.ServeHTTP)
	// The stub answers at once; a Wait that slept between requests would
	// take two hours here.
	st, err := c.Wait(context.Background(), "job-2", time.Hour)
	if err != nil || st.State != server.StateFailed {
		t.Fatalf("Wait = %+v, %v; want failed", st, err)
	}
	if n := len(seq.requests()); n != 3 {
		t.Fatalf("Wait made %d requests, want 3", n)
	}
}

func TestWaitSendsInterval(t *testing.T) {
	for _, tc := range []struct {
		interval, want time.Duration
	}{
		{250 * time.Millisecond, 250 * time.Millisecond},
		{1500 * time.Microsecond, 1500 * time.Microsecond}, // "1.5ms"
		{500 * time.Microsecond, 500 * time.Microsecond},   // "500µs": escaped in the query
		{0, 50 * time.Millisecond},                         // the default
	} {
		seq := &statusSequence{states: []server.State{server.StateDone}}
		c := stub(t, seq.ServeHTTP)
		if _, err := c.Wait(context.Background(), "job-3", tc.interval); err != nil {
			t.Fatal(err)
		}
		waits := seq.requests()
		got, err := time.ParseDuration(waits[0])
		if err != nil || got != tc.want {
			t.Errorf("Wait(%v) sent wait=%q, want %v", tc.interval, waits[0], tc.want)
		}
	}
}

func TestWaitReturnsCtxErrOnCancel(t *testing.T) {
	held := make(chan struct{}, 1)
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		held <- struct{}{}
		<-r.Context().Done() // a hold that only the client ends
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-held
		cancel()
	}()
	st, err := c.Wait(ctx, "job-4", time.Hour)
	if err != context.Canceled {
		t.Fatalf("Wait = %+v, %v; want exactly ctx.Err()", st, err)
	}
}

func TestNotFoundAndAPIErrors(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/result"):
			w.WriteHeader(http.StatusConflict)
			_, _ = w.Write([]byte("not json\n"))
		default:
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "server: no such job"})
		}
	})
	ctx := context.Background()
	_, err := c.Status(ctx, "job-9")
	if !IsNotFound(err) {
		t.Fatalf("404 = %v, want IsNotFound", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Message != "server: no such job" || !strings.Contains(err.Error(), "404") {
		t.Fatalf("404 error = %#v", err)
	}
	if _, err := c.Wait(ctx, "job-9", time.Second); !IsNotFound(err) {
		t.Fatalf("Wait on an unknown job = %v, want IsNotFound", err)
	}
	_, err = c.Result(ctx, "job-9")
	if IsNotFound(err) || !errors.As(err, &ae) || ae.Status != http.StatusConflict || ae.Message != "not json" {
		t.Fatalf("409 with a plain body = %#v", err)
	}
	if IsNotFound(errors.New("other")) {
		t.Fatal("IsNotFound of a non-API error")
	}
}

func TestBusyErrorRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header string
		body   int
		want   time.Duration
	}{
		{"header", "7", 3, 7 * time.Second},
		{"body only", "", 3, 3 * time.Second},
		{"malformed header", "soon", 2, 2 * time.Second},
		{"neither", "", 0, time.Second},
	} {
		c := stub(t, func(w http.ResponseWriter, r *http.Request) {
			if tc.header != "" {
				w.Header().Set("Retry-After", tc.header)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "busy", RetryAfterSeconds: tc.body})
		})
		_, err := c.Submit(context.Background(), server.JobSpec{Kernel: "editdist", N: 8})
		var busy *BusyError
		if !errors.As(err, &busy) || busy.RetryAfter != tc.want {
			t.Errorf("%s: 429 = %#v, want BusyError retry %v", tc.name, err, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want.String()) {
			t.Errorf("%s: message %q does not name the retry", tc.name, err.Error())
		}
	}
}

// TestRoutes: every call goes to its route with its method, sends the spec
// as JSON and decodes the answer.
func TestRoutes(t *testing.T) {
	var mu sync.Mutex
	var got []string
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.Path)
		mu.Unlock()
		switch r.Method + " " + r.URL.Path {
		case "POST /v1/jobs":
			var spec server.JobSpec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil || r.Header.Get("Content-Type") != "application/json" {
				http.Error(w, "bad body", http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "job-1", Kernel: spec.Kernel, State: server.StateQueued})
		case "GET /v1/jobs":
			_ = json.NewEncoder(w).Encode([]server.JobStatus{{ID: "job-1"}, {ID: "job-2"}})
		case "GET /v1/jobs/job-1":
			_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "job-1", State: server.StateRunning})
		case "GET /v1/jobs/job-1/result":
			_ = json.NewEncoder(w).Encode(server.JobResult{Kernel: "lcs", Value: 42})
		case "GET /v1/jobs/job-1/trace":
			_ = json.NewEncoder(w).Encode([]trace.JSONEvent{{}})
		case "DELETE /v1/jobs/job-1":
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "job-1", State: server.StateCancelled})
		case "GET /v1/kernels":
			_ = json.NewEncoder(w).Encode([]server.KernelEntry{{Name: "lcs"}})
		case "GET /metrics":
			_, _ = w.Write([]byte("easyhps_jobs_submitted_total 1\n"))
		default:
			http.NotFound(w, r)
		}
	})
	ctx := context.Background()
	if st, err := c.Submit(ctx, server.JobSpec{Kernel: "lcs", N: 8}); err != nil || st.ID != "job-1" || st.Kernel != "lcs" {
		t.Errorf("Submit = %+v, %v", st, err)
	}
	if l, err := c.List(ctx); err != nil || len(l) != 2 {
		t.Errorf("List = %+v, %v", l, err)
	}
	if st, err := c.Status(ctx, "job-1"); err != nil || st.State != server.StateRunning {
		t.Errorf("Status = %+v, %v", st, err)
	}
	if res, err := c.Result(ctx, "job-1"); err != nil || res.Value != 42 {
		t.Errorf("Result = %+v, %v", res, err)
	}
	if evs, err := c.Trace(ctx, "job-1"); err != nil || len(evs) != 1 {
		t.Errorf("Trace = %+v, %v", evs, err)
	}
	if st, err := c.Cancel(ctx, "job-1"); err != nil || st.State != server.StateCancelled {
		t.Errorf("Cancel = %+v, %v", st, err)
	}
	if ks, err := c.Kernels(ctx); err != nil || len(ks) != 1 || ks[0].Name != "lcs" {
		t.Errorf("Kernels = %+v, %v", ks, err)
	}
	if text, err := c.Metrics(ctx); err != nil || !strings.Contains(text, "easyhps_jobs_submitted_total 1") {
		t.Errorf("Metrics = %q, %v", text, err)
	}
	want := []string{"POST /v1/jobs", "GET /v1/jobs", "GET /v1/jobs/job-1", "GET /v1/jobs/job-1/result",
		"GET /v1/jobs/job-1/trace", "DELETE /v1/jobs/job-1", "GET /v1/kernels", "GET /metrics"}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("routes = %v, want %v", got, want)
	}
}

func TestMetricsError(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "draining"})
	})
	var ae *APIError
	if _, err := c.Metrics(context.Background()); !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("Metrics on 503 = %#v", err)
	}
}
