package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/server"
)

const (
	serviceClients   = 2
	servicePoll      = time.Millisecond
	serviceRepeatMod = 4 // every 4th submission repeats an earlier spec
)

// serviceKernels is the job mix, cycled by submission index.
var serviceKernels = []string{kEdit, kLCS, kNeedleman, kSWGG, kNussinov}

// service is the job service end to end: server.NewHandler on httptest,
// the in-process 2x1 deployment behind it, the whole-job cache on, and
// two closed-loop clients that each Submit, Wait and fetch the Result of
// one small job at a time. One repetition is one slice of jobs.
type service struct {
	sz  sizes
	rng *rand.Rand

	mgr     *server.Manager
	ts      *httptest.Server
	clients [serviceClients]*client.Client
	polls   atomic.Int64
	status  durations

	refs *refTimer
	// pool holds, per kernel, jobs completed in the previous slice: the
	// specs a repeat submission draws from.
	pool     map[string][]*job
	rejected int64
	merged   int64
}

// durations is a concurrency-safe duration sample.
type durations struct {
	mu sync.Mutex
	ds []time.Duration
}

func (d *durations) add(v time.Duration) {
	d.mu.Lock()
	d.ds = append(d.ds, v)
	d.mu.Unlock()
}

func (d *durations) take() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.ds
	d.ds = nil
	return out
}

// statusProbe times and counts the GET /v1/jobs/{id} polls client.Wait
// makes, which the client API does not expose.
type statusProbe struct {
	next http.RoundTripper
	w    *service
}

func (p statusProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/jobs/") || strings.HasSuffix(r.URL.Path, "/result") {
		return p.next.RoundTrip(r)
	}
	start := time.Now()
	resp, err := p.next.RoundTrip(r)
	p.w.status.add(time.Since(start))
	p.w.polls.Add(1)
	return resp, err
}

func (w *service) jobSize(kernel string) int {
	if kernel == kSWGG || kernel == kNussinov {
		return w.sz.serviceCubicN
	}
	return w.sz.serviceWaveN
}

func (w *service) setup(seed int64) error {
	w.rng = rand.New(rand.NewSource(seed))
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		return err
	}
	part := dag.Square(w.sz.serviceProc)
	w.mgr = server.NewManager(server.ManagerConfig{
		Run: core.Config{
			Slaves: deploySlaves, Threads: deployThreads,
			ProcPartition: part, ThreadPartition: dag.Square(w.sz.serviceThread),
			Policy: core.PolicyDynamic, Batch: 1,
		},
		Cache:         store,
		MaxConcurrent: 2,
		QueueDepth:    8,
	}, nil)
	w.ts = httptest.NewServer(server.NewHandler(w.mgr))
	hc := w.ts.Client()
	hc.Transport = statusProbe{next: hc.Transport, w: w}
	for c := range w.clients {
		w.clients[c] = client.New(w.ts.URL, hc)
	}
	w.pool = make(map[string][]*job)

	// The warm-up slice is all fresh specs; its jobs seed the repeat
	// pool and carry set-up's reference-vs-dp.Sequential assertion.
	slice := w.nextSlice()
	w.refs = newRefTimer(slice.jobs, w.sz.minRefSample)
	for _, j := range slice.jobs {
		if err := j.prepare(w.refs.buf); err != nil {
			return err
		}
	}
	if err := warmUp(w.runSlice(slice, untimed(len(slice.jobs)), nil)); err != nil {
		return err
	}
	w.status.take()
	w.polls.Store(0)
	return nil
}

// slice is one repetition's submissions, in submission order.
type slice struct {
	jobs   []*job
	repeat []bool
}

// nextSlice draws the next slice: kernels cycle, and every
// serviceRepeatMod-th submission re-sends a spec of the same kernel that
// completed in the previous slice (none exist before the warm-up slice).
func (w *service) nextSlice() slice {
	s := slice{jobs: make([]*job, w.sz.serviceSlice), repeat: make([]bool, w.sz.serviceSlice)}
	for i := range s.jobs {
		kernel := serviceKernels[i%len(serviceKernels)]
		if prev := w.pool[kernel]; i%serviceRepeatMod == serviceRepeatMod-1 && len(prev) > 0 {
			s.jobs[i], s.repeat[i] = prev[w.rng.Intn(len(prev))], true
			continue
		}
		s.jobs[i] = newJob(w.rng, kernel, w.jobSize(kernel), 0.15, w.sz.serviceProc, w.sz.serviceThread)
	}
	return s
}

func (w *service) rep(rec *recorder) (repSample, error) {
	s := w.nextSlice()
	for i, j := range s.jobs {
		if !s.repeat[i] {
			j.want = digest{scalar: j.gridScalar(j.reference(w.refs.buf))}
		}
	}
	return w.runSlice(s, w.refs.time(s.jobs), rec)
}

// runSlice sends the slice through the service from serviceClients
// closed-loop clients; refs are its jobs' reference times.
func (w *service) runSlice(s slice, refs []time.Duration, rec *recorder) (repSample, error) {
	ref := sumDurations(refs)

	type outcome struct {
		latency   time.Duration
		failed    bool
		stats     server.RunStats
		submitDur time.Duration
		resultDur time.Duration
	}
	out := make([]outcome, len(s.jobs))
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.clients[c]
			for i := c; i < len(s.jobs); i += serviceClients {
				j, o := s.jobs[i], &out[i]
				name := "slice-job-" + strconv.Itoa(i)
				root := rec.begin(0, name, "job")
				t0 := time.Now()
				var st server.JobStatus
				var err error
				o.submitDur = rec.timed(root, name, "http.submit", func() { st, err = cl.Submit(ctx, j.spec()) })
				if err == nil {
					rec.timed(root, name, "http.wait", func() { st, err = cl.Wait(ctx, st.ID, servicePoll) })
				}
				o.latency = time.Since(t0)
				if err != nil || st.State != server.StateDone {
					// Refused (429), errored, or ended in a state other
					// than done: the job failed.
					o.failed = true
					rec.end(root)
					continue
				}
				var res server.JobResult
				o.resultDur = rec.timed(root, name, "http.result", func() { res, err = cl.Result(ctx, st.ID) })
				rec.end(root)
				if err != nil || res.Value != j.want.scalar {
					o.failed = true
					continue
				}
				if !res.Cached {
					o.stats = res.Stats
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	sample := repSample{ref: ref, wall: wall, busy: wall, jobs: len(s.jobs)}
	for i, o := range out {
		sample.latency = append(sample.latency, o.latency)
		sample.cells += int64(s.jobs[i].cells())
		if o.failed {
			sample.failed++
			continue
		}
		sample.vertices += o.stats.Tasks
		sample.leaked += o.stats.Redistributions
		sample.counts.messages += o.stats.Messages
		sample.counts.payloadBytes += o.stats.PayloadBytes
		sample.counts.taskBytes += o.stats.TaskBytes
		sample.counts.dispatches += o.stats.Dispatches
		sample.counts.subTasks += o.stats.SubTasks
		sample.counts.result = append(sample.counts.result, o.resultDur)
		if s.repeat[i] {
			sample.warmLatency = append(sample.warmLatency, o.latency)
			sample.counts.cachedSubmit = append(sample.counts.cachedSubmit, o.submitDur)
		} else {
			sample.counts.submit = append(sample.counts.submit, o.submitDur)
		}
	}
	sample.counts.status = w.status.take()
	sample.counts.serverPolls = w.polls.Swap(0)

	rejected, merged, err := w.admissionCounters(ctx)
	if err != nil {
		return sample, err
	}
	sample.counts.serverRejected, w.rejected = rejected-w.rejected, rejected
	sample.counts.serverCoalesced, w.merged = merged-w.merged, merged

	// Completed fresh jobs become the next slice's repeat pool.
	w.pool = make(map[string][]*job)
	for i, j := range s.jobs {
		if !s.repeat[i] && !out[i].failed {
			w.pool[j.kernel] = append(w.pool[j.kernel], j)
		}
	}
	return sample, nil
}

// admissionCounters reads the rejected and coalesced totals from /metrics.
func (w *service) admissionCounters(ctx context.Context) (rejected, coalesced int64, err error) {
	text, err := w.clients[0].Metrics(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("reading /metrics: %w", err)
	}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		switch name {
		case "easyhps_jobs_rejected_total":
			rejected, _ = strconv.ParseInt(val, 10, 64) // a malformed line reads as 0
		case "easyhps_jobs_coalesced_total":
			coalesced, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return rejected, coalesced, nil
}

func (w *service) teardown() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = w.mgr.Shutdown(ctx) // nothing is queued or running once the clients returned
	}
}

func (w *service) reps() int { return w.sz.serviceSlices }

// timings: the fastest slice's makespan gives the speed-up, as everywhere.
// The other two are statistics over the jobs inside the slices, and the
// host's episodes move them by more than any bound when they are held
// straight against the reference (ten-run quartile spreads of 9-26 %).
// So each is taken per slice relative to that slice's own pace — its slot,
// the time a client spent per job — which the same episode has moved the
// same way (spreads of 4-7 %), and the median slice's ratio is put back on
// the reference's scale by the speed-up of the fastest slice:
//
//	latency / (reference of one job)  = latency/slot x clients / speedup
//	clients x (reference of one job) / repeat latency = slot/latency x speedup
//
// The latency is the slice's p97 (12 of its 400 jobs beyond it) for
// job_latency_x and the median over the slice's resubmitted specs for
// warm_speedup_vs_seq (the rate serviceClients closed-loop clients get
// out of resubmissions).
func (w *service) timings(samples []repSample) timings {
	speedup := bestOf(samples, func(s repSample) time.Duration { return s.wall })
	var tail, warm []float64
	for _, s := range samples {
		slot := s.wall.Seconds() * serviceClients / float64(len(s.latency))
		tail = append(tail, percentile(in(time.Second, s.latency), 0.97)/slot*serviceClients/speedup.value)
		if len(s.warmLatency) > 0 {
			warm = append(warm, slot/median(in(time.Second, s.warmLatency))*speedup.value)
		}
	}
	return timings{
		speedup:     speedup,
		warmSpeedup: estimate{value: median(warm), sample: warm},
		latencyX:    estimate{value: median(tail), sample: tail},
	}
}

// absent: no fleet and no master-level result cache (ManagerConfig.Cache
// memoizes whole jobs; its hits are the cached submissions).
func (w *service) absent() []string {
	return []string{"fleet.", "sim.", "cas.master_", "cas.wire_", "cas.warm_hit_frac", "raw.warm_makespan_s"}
}

// replayJobs walks one job of each kernel in the mix.
func (w *service) replayJobs() ([]*job, replaySettings) {
	var jobs []*job
	for _, k := range serviceKernels {
		if p := w.pool[k]; len(p) > 0 {
			jobs = append(jobs, p[0])
		}
	}
	return jobs, replaySettings{transport: transportChan, freshShare: float64(serviceRepeatMod-1) / serviceRepeatMod}
}
