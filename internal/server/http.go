package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// API is the HTTP front of a Manager. Routes:
//
//	POST   /v1/jobs           submit a JobSpec            -> 202 JobStatus
//	GET    /v1/jobs           list jobs                   -> 200 []JobStatus
//	GET    /v1/jobs/{id}      job state + progress        -> 200 JobStatus
//	GET    /v1/jobs/{id}?wait=<duration>
//	                          the same, held until the job is terminal,
//	                          the duration (capped at maxHold) passes or
//	                          the client goes away    -> 200 JobStatus
//	GET    /v1/jobs/{id}/result                           -> 200 JobResult
//	GET    /v1/jobs/{id}/trace   scheduling trace         -> 200 []trace.JSONEvent
//	DELETE /v1/jobs/{id}      cancel                      -> 202 JobStatus
//	GET    /v1/kernels        registry listing            -> 200 []KernelEntry
//	GET    /metrics           text exposition             -> 200 text/plain
//	GET    /healthz           liveness                    -> 200
//
// Error mapping: bad spec or malformed wait 400, unknown job 404,
// result-not-ready or cancel-after-finish 409, submit body over the bound
// (maxEnvelope) 413, queue full 429 (+ Retry-After seconds), shutting down
// 503.
type API struct {
	mgr *Manager
}

// maxHold caps how long GET /v1/jobs/{id}?wait= holds a status request. A
// hold ends early when the job turns terminal — by finishing, by DELETE, or
// by the manager's drain, which settles every job before it returns — or
// when the client goes away, so one request ties up one goroutine of the
// server for at most this long.
const maxHold = 30 * time.Second

// holdStarted and holdEnded, when set, observe a status request entering
// and leaving its hold. Tests use them to act on a held request without
// sleeping.
var holdStarted, holdEnded func(id string)

// NewHandler builds the HTTP handler over mgr.
func NewHandler(mgr *Manager) http.Handler {
	a := &API{mgr: mgr}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs", a.list)
	mux.HandleFunc("GET /v1/jobs/{id}", a.status)
	mux.HandleFunc("GET /v1/jobs/{id}/result", a.result)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", a.trace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	mux.HandleFunc("GET /v1/kernels", a.kernels)
	mux.HandleFunc("GET /metrics", a.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds accompanies 429 rejections.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (a *API) writeError(w http.ResponseWriter, err error) {
	body := ErrorBody{Error: err.Error()}
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrBusy):
		code = http.StatusTooManyRequests
		secs := int(a.mgr.RetryAfter().Seconds())
		if secs < 1 {
			secs = 1
		}
		body.RetryAfterSeconds = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrFinished):
		code = http.StatusConflict
	case errors.As(err, new(*http.MaxBytesError)):
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, body)
}

// maxEnvelope is what a job spec's JSON may carry besides its sequences.
// A submit body is bounded by the manager's MaxCells plus this: a longer
// one could only hold sequences whose DP matrix exceeds MaxCells, which
// Submit refuses anyway.
const maxEnvelope = 64 << 10

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, a.mgr.cfg.MaxCells+maxEnvelope)
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		a.writeError(w, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	_, st, err := a.mgr.Submit(spec)
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.mgr.List())
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	var hold time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			a.writeError(w, fmt.Errorf("server: malformed wait %q: %w", v, err))
			return
		}
		hold = min(d, maxHold)
	}
	j, err := a.mgr.Get(r.PathValue("id"))
	if err != nil {
		a.writeError(w, err)
		return
	}
	if hold > 0 {
		if holdStarted != nil {
			holdStarted(j.ID)
		}
		j.await(r.Context(), hold)
		if holdEnded != nil {
			holdEnded(j.ID)
		}
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (a *API) result(w http.ResponseWriter, r *http.Request) {
	j, err := a.mgr.Get(r.PathValue("id"))
	if err != nil {
		a.writeError(w, err)
		return
	}
	res, err := j.Result()
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *API) trace(w http.ResponseWriter, r *http.Request) {
	evs, err := a.mgr.Trace(r.PathValue("id"))
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, evs)
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.mgr.Cancel(id); err != nil {
		a.writeError(w, err)
		return
	}
	j, err := a.mgr.Get(id)
	if err != nil {
		a.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (a *API) kernels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.mgr.Registry().Names())
}

func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	a.mgr.WriteMetrics(w)
}
