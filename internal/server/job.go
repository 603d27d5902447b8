package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/fleet"
)

// State is a job lifecycle state. The machine is
//
//	queued -> running -> done
//	                  -> failed
//	queued/running    -> cancelled
//
// and every terminal state is final.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Submission and lifecycle errors, mapped to HTTP statuses by the API
// layer.
var (
	// ErrBusy means the submission queue is full (backpressure; HTTP 429).
	ErrBusy = errors.New("server: submission queue full")
	// ErrShuttingDown means the manager no longer accepts jobs (HTTP 503).
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrNotFound means the job id is unknown (HTTP 404).
	ErrNotFound = errors.New("server: no such job")
	// ErrNotDone means the job has no result yet (HTTP 409).
	ErrNotDone = errors.New("server: job not finished")
	// ErrFinished means the job already reached a terminal state
	// (HTTP 409 on cancel).
	ErrFinished = errors.New("server: job already finished")
)

// Job is one submitted DP run. All mutable fields are guarded by mu
// except the progress counters, which the driver's receive side updates
// through atomics.
type Job struct {
	// ID is the globally unique job id, "job-<n>" with n drawn from the
	// manager's monotonic counter — never reused within a manager, so a
	// cancelled-then-resubmitted job can never collide with an in-flight
	// one.
	ID   string
	Spec JobSpec

	// digest is the spec's kernel+inputs fingerprint — the identity the
	// whole-job cache and the single-flight table key on.
	digest string

	// problem and finish are the job's inputs: what a run computes and how
	// its answer is read off. A terminal job no longer needs them and drops
	// them (settleLocked), so the job table keeps only status and result.
	problem core.Problem[int32]
	finish  finishFunc

	completed, total atomic.Int64

	mu        sync.Mutex
	state     State
	err       string
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// JobStatus is the wire snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	Kernel   string   `json:"kernel"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Progress counts completed and total processor-level sub-tasks, surfaced
// live from the master while the job runs.
type Progress struct {
	Completed int64 `json:"completed"`
	Total     int64 `json:"total"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:     j.ID,
		Kernel: j.Spec.Kernel,
		State:  j.state,
		Progress: Progress{
			Completed: j.completed.Load(),
			Total:     j.total.Load(),
		},
		Error:       j.err,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// settleLocked moves j into the terminal state st at now, drops the inputs
// only a run needs and closes done. The caller holds j.mu and has set
// whatever result or error st carries.
func (j *Job) settleLocked(st State, now time.Time) {
	j.state = st
	j.finished = now
	j.problem = core.Problem[int32]{}
	j.finish = nil
	close(j.done)
}

// await blocks until j is terminal, hold has passed or ctx ends, whichever
// comes first.
func (j *Job) await(ctx context.Context, hold time.Duration) {
	select {
	case <-j.done:
		return
	default:
	}
	timer := time.NewTimer(hold)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
	case <-ctx.Done():
	}
}

// Result returns the finished job's result, or ErrNotDone / the job's
// failure.
func (j *Job) Result() (*JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		// Terminal without a result: wraps ErrFinished so the API layer
		// answers 409, not 400.
		return nil, fmt.Errorf("%w; job %s failed: %s", ErrFinished, j.ID, j.err)
	case StateCancelled:
		return nil, fmt.Errorf("%w; job %s was cancelled", ErrFinished, j.ID)
	default:
		return nil, ErrNotDone
	}
}

// ManagerConfig sizes the job service.
type ManagerConfig struct {
	// Run is the deployment every job runs on. The manager reads
	//   - Slaves: the in-process members of its own fleet;
	//   - Threads, ThreadPartition and Batch (the flush bound of a batch's
	//     results): what each of them computes with;
	//   - Batch, TaskTimeout, MaxAttempts, Speculate, Steal and Auto: its
	//     fleet's pool (FleetOptions);
	//   - ProcPartition, ThreadPartition, RunTimeout (the job's bound) and
	//     Progress (told the job's progress): per job, on an attached
	//     Fleet too.
	// Policy, CheckInterval, Faults, Checkpoint, Restore and Trace belong
	// to core.RunContext alone; no manager is given them.
	Run core.Config
	// Fleet, when non-nil, is the shared fleet every job runs on: elastic
	// workers join it over TCP. The manager does not own it; the caller
	// closes it. Without one, NewManager builds a fleet that opens no
	// listener, with Run.Slaves in-process members that live until
	// Shutdown. Either way the fleet's policy interleaves the admitted
	// jobs over the one pool — by Weight and Priority — and the run slots
	// are pure admission control (a slot is held while its job is in
	// flight).
	Fleet *fleet.Fleet[int32]
	// Cache, when non-nil, is the content-addressed result store. The
	// manager keeps each job's result there under its cas.JobKey: a
	// submission whose spec digest has a cached result answers immediately
	// without holding a run slot, and every computed result is written
	// through. (The single-flight table
	// that coalesces concurrent identical submissions is independent of
	// the cache and always on.)
	Cache *cas.Store
	// MaxConcurrent is the number of run slots — jobs in flight on the
	// fleet at once. Default 2.
	MaxConcurrent int
	// QueueDepth bounds the submission queue behind the run slots;
	// submissions beyond it are rejected with ErrBusy. Default 16.
	QueueDepth int
	// MaxCells rejects jobs whose DP matrix exceeds this size (admission
	// control against oversized tenants). 0 means 16M cells.
	MaxCells int64
	// RetryAfter is the backpressure hint returned with ErrBusy
	// rejections. Default 1s.
	RetryAfter time.Duration
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 16 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Run.Slaves < 1 {
		c.Run.Slaves = 2
	}
	if c.Run.Threads < 1 {
		c.Run.Threads = 2
	}
	return c
}

// Manager is the multi-tenant job service: it runs every job on one
// long-lived fleet, admits jobs into a bounded queue, keeps at most
// MaxConcurrent of them in flight, and tracks every job it has ever
// accepted by id.
type Manager struct {
	cfg ManagerConfig
	reg *Registry

	// fleet is cfg.Fleet, or the manager's own, whose in-process members
	// run in members.
	fleet   *fleet.Fleet[int32]
	members sync.WaitGroup

	// rootCtx is the manager-lifetime context every job's run context
	// derives from. Shutdown's forced phase cancels it, which reaches
	// jobs that grab a run slot concurrently with the shutdown sweep —
	// a per-job cancel loop over m.running would miss a job whose
	// cancel func is registered after the loop snapshots the map.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup

	metrics *metrics

	mu       sync.Mutex
	seq      uint64
	jobs     map[string]*Job
	running  map[string]*Job
	flights  map[string]*flight
	draining bool
}

// flight is one live computation of a spec digest: the leader is the job
// actually enqueued; followers are identical submissions that arrived
// while the leader was in flight and share its outcome when it settles.
type flight struct {
	leader    *Job
	followers []*Job
}

// NewManager starts a manager with MaxConcurrent run slots.
func NewManager(cfg ManagerConfig, reg *Registry) *Manager {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = NewRegistry()
	}
	//lint:ignore naked-background manager-lifetime root context: jobs outlive any submit request by design; cancelled in Shutdown's forced phase
	rootCtx, rootCancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		reg:        reg,
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		quit:       make(chan struct{}),
		jobs:       make(map[string]*Job),
		running:    make(map[string]*Job),
		flights:    make(map[string]*flight),
		metrics:    newMetrics(),
	}
	m.fleet = cfg.Fleet
	if m.fleet == nil {
		m.fleet, _ = fleet.New[int32](FleetOptions(cfg.Run)) // no listener, no error
		for i := range cfg.Run.Slaves {
			w := m.fleet.Join(fmt.Sprintf("local-%d", i), cfg.Run)
			m.members.Add(1)
			go func() {
				defer m.members.Done()
				// How a member ended is the fleet's to see: a dismissal, or a
				// death its registry records and whose leases it revokes.
				_ = w.Serve(m.rootCtx)
			}()
		}
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the kernel registry jobs are validated against.
func (m *Manager) Registry() *Registry { return m.reg }

// RetryAfter is the backpressure hint for ErrBusy rejections.
func (m *Manager) RetryAfter() time.Duration { return m.cfg.RetryAfter }

// Submit validates spec, assigns a globally unique id and enqueues the
// job. It returns ErrBusy when the bounded queue is full and
// ErrShuttingDown after Shutdown began. A spec whose result is already in
// the whole-job cache returns a finished job immediately; a spec identical
// to one already in flight is coalesced onto it (single-flight) and shares
// its outcome without consuming queue space or a run slot. The status it
// returns is the job's as it was admitted, taken before a run slot could
// see the job: the 202 reply, so a fresh job answers queued however soon
// it starts.
func (m *Manager) Submit(spec JobSpec) (*Job, JobStatus, error) {
	problem, finish, err := m.reg.Build(spec, m.cfg.MaxCells)
	if err != nil {
		return nil, JobStatus{}, err
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, JobStatus{}, ErrShuttingDown
	}
	m.seq++
	j := &Job{
		ID:        fmt.Sprintf("job-%d", m.seq),
		Spec:      spec,
		digest:    spec.Digest(),
		problem:   problem,
		finish:    finish,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}

	// Whole-job memoization: an identical finished job answers from the
	// cache without touching the queue. A corrupt entry falls through to
	// recompute — the cache can degrade service to a miss, never corrupt
	// an answer.
	if m.cfg.Cache != nil {
		if payload, _, ok := m.cfg.Cache.GetBlock(cas.JobKey(j.digest), cas.LayerServer); ok {
			var result JobResult
			if err := json.Unmarshal(payload, &result); err == nil {
				result.Cached = true
				j.result = &result
				j.settleLocked(StateDone, time.Now()) // j is not published yet
				st := j.statusLocked()
				m.jobs[j.ID] = j
				m.mu.Unlock()
				m.metrics.submitted.Add(1)
				m.metrics.observeFinal(StateDone, 0)
				return j, st, nil
			}
		}
	}

	// Single-flight: an identical submission already in flight absorbs
	// this one as a follower; the leader's settlement resolves it. This
	// dedup works with the cache disabled too.
	st := j.statusLocked() // queued, and j is not published yet
	if fl := m.flights[j.digest]; fl != nil {
		fl.followers = append(fl.followers, j)
		m.jobs[j.ID] = j
		m.mu.Unlock()
		m.metrics.submitted.Add(1)
		m.metrics.coalesced.Add(1)
		return j, st, nil
	}

	// Reserve the queue spot before publishing the flight, all under one
	// lock hold, so a rejected submission can never have gathered
	// followers that would then be stranded.
	select {
	case m.queue <- j:
	default:
		// Backpressure: reject instead of buffering without bound. The
		// id is spent — the counter is monotonic, so rejected ids are
		// simply never visible.
		m.mu.Unlock()
		m.metrics.rejected.Add(1)
		return nil, JobStatus{}, ErrBusy
	}
	m.flights[j.digest] = &flight{leader: j}
	m.jobs[j.ID] = j
	m.mu.Unlock()
	m.metrics.submitted.Add(1)
	return j, st, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// List snapshots every known job, newest first.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	sortStatuses(out)
	return out
}

// Cancel stops a job: a queued job is finalized immediately (the worker
// skips it when it surfaces from the queue), a running job has its run
// context cancelled — the master stops scheduling and the job finalizes
// once the in-flight sub-tasks drain. Cancelling a terminal job returns
// ErrFinished.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.settleLocked(StateCancelled, time.Now())
		j.mu.Unlock()
		m.metrics.observeFinal(StateCancelled, 0)
		// If j led a single-flight group, its followers must not die with
		// it — settlement promotes one of them to a fresh leader.
		m.settleFlight(j)
		return nil
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return nil
	default:
		j.mu.Unlock()
		return ErrFinished
	}
}

// QueueDepth returns the number of jobs waiting for a run slot.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Shutdown drains the service: submissions are refused, queued jobs are
// cancelled, and running jobs are given until ctx's deadline to finish —
// after that their run contexts are cancelled and Shutdown waits for the
// unwind. It returns nil when every job finalized.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if already {
		return errors.New("server: shutdown already in progress")
	}
	close(m.quit)

	// Cancel jobs still waiting in the queue; workers are told to quit,
	// so nothing pops them anymore.
	for {
		select {
		case j := <-m.queue:
			j.mu.Lock()
			if j.state == StateQueued {
				j.settleLocked(StateCancelled, time.Now())
				m.metrics.observeFinal(StateCancelled, 0)
			}
			j.mu.Unlock()
			// Settlement sees draining and cancels any followers too.
			m.settleFlight(j)
			continue
		default:
		}
		break
	}

	workers := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workers)
	}()
	defer m.closeFleet()
	select {
	case <-workers:
		return nil
	case <-ctx.Done():
	}

	// Deadline passed with jobs still running: cancel the manager root
	// context — every run context derives from it, including one a
	// worker starts this instant — and wait for the bounded unwind
	// (one processor-level sub-task per job).
	m.rootCancel()
	//lint:ignore ctx-select bounded join: rootCancel above stops every run within one in-flight sub-task; abandoning the workers would leak them
	<-workers
	return ctx.Err()
}

// closeFleet closes the manager's own fleet, once no job is in flight, and
// waits for its in-process members to be dismissed.
func (m *Manager) closeFleet() {
	if m.cfg.Fleet == nil {
		m.fleet.Close()
		m.members.Wait()
	}
}

// worker is one run slot: it pulls admitted jobs off the queue and runs
// them on the fleet until Shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		default:
		}
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job on the fleet, translating the outcome into the job
// state machine.
func (m *Manager) run(j *Job) {
	ctx, cancel := context.WithCancel(m.rootCtx)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()

	m.mu.Lock()
	m.running[j.ID] = j
	m.mu.Unlock()

	res, err := m.runFleet(ctx, j)

	// The run's counters leave the live set and enter the totals in one
	// step, failed runs too, so /metrics counts a fleet job once and its
	// series never fall (WriteMetrics).
	m.mu.Lock()
	delete(m.running, j.ID)
	if res != nil {
		m.metrics.addRunStats(res.Stats)
	}
	m.mu.Unlock()

	// Only this goroutine settles a running job, so its inputs are still
	// there and the outcome is built without j.mu.
	finished := time.Now()
	var final State
	var result *JobResult
	var errText string
	switch {
	case err == nil:
		r := j.finish(res)
		final, result = StateDone, &r
	case ctx.Err() != nil:
		final, errText = StateCancelled, context.Canceled.Error()
	default:
		final, errText = StateFailed, err.Error()
	}

	if final == StateDone && m.cfg.Cache != nil {
		// Write-through to the whole-job cache, before the job turns
		// terminal: a client that sees it done and resubmits at once must
		// hit the cache, not coalesce onto this job's flight, which
		// settles after. The stored copy keeps Cached=false — the flag
		// describes how a particular submission was served, not the
		// payload.
		if payload, err := json.Marshal(result); err == nil {
			m.cfg.Cache.PutBlock(cas.JobKey(j.digest), payload)
		}
	}

	// Counted before the job turns terminal, like the cache write: a
	// client that sees it done reads it in /metrics. This goroutine set
	// j.started, so it reads it without j.mu.
	m.metrics.observeFinal(final, finished.Sub(j.started))
	j.mu.Lock()
	j.result, j.err = result, errText
	j.settleLocked(final, finished)
	j.mu.Unlock()
	m.settleFlight(j)
}

// settleFlight resolves the single-flight group j led, if any. Followers
// share a done leader's result (marked Cached — they did not compute it)
// or a failed leader's error. A cancelled leader does not doom its
// followers: cancellation targets one job id, not the computation, so the
// survivors are promoted into a fresh flight whose leader re-enters the
// queue.
func (m *Manager) settleFlight(j *Job) {
	m.mu.Lock()
	fl := m.flights[j.digest]
	if fl == nil || fl.leader != j {
		m.mu.Unlock()
		return
	}
	delete(m.flights, j.digest)
	followers := fl.followers
	m.mu.Unlock()
	if len(followers) == 0 {
		return
	}

	j.mu.Lock()
	state, result, errText := j.state, j.result, j.err
	j.mu.Unlock()

	now := time.Now()
	finalize := func(f *Job, st State, res *JobResult, errText string) {
		f.mu.Lock()
		if f.state.Terminal() {
			f.mu.Unlock()
			return
		}
		f.result = res
		f.err = errText
		f.settleLocked(st, now)
		f.mu.Unlock()
		m.metrics.observeFinal(st, 0)
	}

	switch state {
	case StateDone:
		shared := *result
		shared.Cached = true
		for _, f := range followers {
			finalize(f, StateDone, &shared, "")
		}
	case StateFailed:
		for _, f := range followers {
			finalize(f, StateFailed, nil, errText)
		}
	case StateCancelled:
		var live []*Job
		for _, f := range followers {
			f.mu.Lock()
			terminal := f.state.Terminal()
			f.mu.Unlock()
			if !terminal {
				live = append(live, f)
			}
		}
		if len(live) == 0 {
			return
		}
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			for _, f := range live {
				finalize(f, StateCancelled, nil, "")
			}
			return
		}
		if cur := m.flights[j.digest]; cur != nil {
			// A new identical submission started its own flight between
			// our delete and now; ride it instead of racing it.
			cur.followers = append(cur.followers, live...)
			m.mu.Unlock()
			return
		}
		select {
		case m.queue <- live[0]:
			m.flights[j.digest] = &flight{leader: live[0], followers: live[1:]}
			m.mu.Unlock()
		default:
			m.mu.Unlock()
			for _, f := range live {
				finalize(f, StateFailed, nil, ErrBusy.Error())
			}
		}
	}
}

func sortStatuses(s []JobStatus) {
	sort.Slice(s, func(i, k int) bool { return s[i].SubmittedAt.After(s[k].SubmittedAt) })
}
