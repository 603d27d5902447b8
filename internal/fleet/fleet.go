// Package fleet is the elastic member source of the master driver
// (core.Driver): N concurrent DAG jobs over one worker pool that members
// join over TCP or in process (Join), leave and die under. Every worker
// process is a fleet member: the job service runs every job on one, and a
// multi-process run (easyhps-launch) is a fleet with one job.
//
// Scheduling is the driver's, over one engine.Job per job and one
// engine.Pool, whose weighted max-min fair share picks the job an idle
// worker is fed from; a poisoned job fails alone. What is here is where
// members come from — the listener and join handshake, the registry
// (core.Registry) the driver sweeps, a reader per connection — job
// admission (each job's attach frame, JobMeta, checkpoint and cache key)
// and monitoring. A worker attaches a job's kernel state on its job-spec
// frame, so it holds batches of several jobs at once. See docs/FLEET.md.
package fleet

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Options configures a shared fleet.
type Options struct {
	// Addr is the listen address (host:port; :0 picks a free port,
	// readable from Fleet.Addr). Empty opens no listener: the members are
	// the ones Join admits in process.
	Addr string
	// HeartbeatInterval is the member beacon period (default 250 ms),
	// HeartbeatMiss how many silent intervals declare a member dead
	// (default 3); a TCP worker's welcome tells it both, with Batch, its
	// results' flush bound.
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
	// TaskTimeout, MaxAttempts, Batch, Speculate, SpecFloor, Steal, Auto
	// and CheckInterval (default HeartbeatInterval) are the shared pool's
	// scheduling configuration: engine.PoolConfig, whose defaults they
	// take; its other fields keep theirs. A job's JobRequest may override
	// TaskTimeout and MaxAttempts; a batch never mixes jobs;
	// Auto's adjustments are traced as EvTune events on the fleet recorder
	// and exported via TuneSnapshot.
	TaskTimeout   time.Duration
	MaxAttempts   int
	Batch         int
	Speculate     bool
	SpecFloor     time.Duration
	Steal         bool
	Auto          bool
	CheckInterval time.Duration
	// Cache, when non-nil, is the cross-job result store (internal/cas) of
	// the jobs with a CacheKey: a computable vertex is probed before it is
	// dispatched, a completed block written through, and task payloads go
	// keyed, a block the member holds becoming a content-key reference.
	Cache *cas.Store
	// Clock is the time source for all deadline machinery; nil means the
	// wall clock, tests inject a sched.FakeClock.
	Clock sched.Clock
	// Trace optionally records fleet-level membership events.
	Trace *trace.Recorder
}

// withDefaults fills the defaults of what the fleet itself reads; the
// scheduling knobs take theirs in engine.NewPool.
func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatMiss < 1 {
		o.HeartbeatMiss = 3
	}
	if o.CheckInterval <= 0 {
		o.CheckInterval = o.HeartbeatInterval
	}
	if o.Clock == nil {
		o.Clock = sched.Wall
	}
	return o
}

// Snapshot is the fleet's monitoring surface: per-job progress, job-state
// counts, and the autoscaling signals (aggregate queue depth, hunger
// rate, per-job deficit).
type Snapshot struct {
	// Jobs lists running jobs first, then retained finished ones.
	Jobs []JobStatus
	// States counts jobs by state ("running", "done", "failed").
	States map[string]int
	// QueueDepth is the computable vertices queued across running jobs.
	QueueDepth int
	// Hungers counts the control ticks' hunger passes that moved backlog
	// toward a member whose draw came back empty (core.Driver.Tick): a
	// high rate means workers drain faster than the fleet feeds them.
	Hungers int64
	// Members is the membership view (states, joins, deaths, ...).
	Members core.Snapshot
	// Aggregate rolls every job's Stats up into one ledger.
	Aggregate engine.Stats
}

// Fleet runs many concurrent DAG jobs over one shared elastic worker
// pool. Create with New, submit jobs with Run (one goroutine per job,
// typically the job service's run slots), stop with Close.
type Fleet[T any] struct {
	opts Options
	ln   net.Listener
	reg  *core.Registry
	d    *core.Driver[T]

	nextID atomic.Int32
	wg     sync.WaitGroup // the accept loop and one reader per connection
}

// New builds a fleet and starts listening on opts.Addr, if set. Workers
// may join immediately; jobs arrive via Run.
func New[T any](opts Options) (*Fleet[T], error) {
	opts = opts.withDefaults()
	f := &Fleet[T]{opts: opts, reg: core.NewRegistry(opts.Trace, opts.Clock)}
	if opts.Addr != "" {
		ln, err := net.Listen("tcp", opts.Addr)
		if err != nil {
			return nil, err
		}
		f.ln = ln
		f.wg.Add(1)
		go f.acceptLoop()
	}
	f.d = core.NewDriver[T](core.DriverConfig{
		Pool: engine.PoolConfig{
			Batch:         opts.Batch,
			TaskTimeout:   opts.TaskTimeout,
			MaxAttempts:   opts.MaxAttempts,
			Speculate:     opts.Speculate,
			SpecFloor:     opts.SpecFloor,
			Steal:         opts.Steal,
			Auto:          opts.Auto,
			CheckInterval: opts.CheckInterval,
			Trace:         opts.Trace,
		},
		Clock:             opts.Clock,
		Registry:          f.reg,
		HeartbeatInterval: opts.HeartbeatInterval,
		HeartbeatMiss:     opts.HeartbeatMiss,
		Cache:             opts.Cache,
		RetainJobs:        64, // finished jobs Snapshot and TraceEvents still list
	})
	f.d.StartTick()
	return f, nil
}

// Addr returns the address the fleet listens on, with Options.Addr set.
func (f *Fleet[T]) Addr() string { return f.ln.Addr().String() }

// Join admits an in-process member named name that computes with run and
// returns its worker, ready to serve (core.Driver.JoinLocal); nil once the
// fleet is closed.
func (f *Fleet[T]) Join(name string, run core.Config) *core.Worker[T] {
	return f.d.JoinLocal(name, run)
}

// Registry exposes the membership table.
func (f *Fleet[T]) Registry() *core.Registry { return f.reg }

// Close shuts the fleet down: running jobs fail with core.ErrClosed and
// workers are dismissed.
func (f *Fleet[T]) Close() {
	if f.ln != nil {
		f.ln.Close()
	}
	f.d.Close()
	f.wg.Wait()
}

// Run submits one job and blocks until it completes, fails, or ctx is
// cancelled. Jobs run concurrently: call Run from one goroutine per job. A
// job that started and then failed returns its Result beside the error:
// the counters it reached, so a caller can count every run once. The blocks
// leave with it: a retained job keeps its counts and trace.
func (f *Fleet[T]) Run(ctx context.Context, p core.Problem[T], req JobRequest) (*Result[T], error) {
	jb, err := f.newJob(f.nextID.Add(1), p, req)
	if err != nil {
		return nil, err
	}
	if err := f.d.Start(jb); err != nil {
		return nil, err
	}
	err = f.d.Wait(ctx, jb)
	return &Result[T]{Store: jb.Engine.Store().Take(), Stats: jb.RunStats()}, err
}

// acceptLoop admits workers for the fleet's whole lifetime.
func (f *Fleet[T]) acceptLoop() {
	defer f.wg.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed in Close
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.admit(c)
		}()
	}
}

// admit performs the join handshake on one fresh connection, hands the
// member to the driver and reads its messages into the driver until the
// connection fails. A hello names no job: each job's spec is verified by
// its attach frame instead; the welcome tells the member the fleet's terms.
func (f *Fleet[T]) admit(c net.Conn) {
	cn, id, err := comm.AcceptHello(c, func(hello comm.Hello) comm.Welcome {
		if !hello.Fleet {
			return comm.Welcome{Err: "this master runs a fleet; join it with an easyhps-worker of the same build"}
		}
		if f.d.Closed() {
			return comm.Welcome{Err: "fleet shut down"}
		}
		return comm.Welcome{
			Member:        f.reg.Admit(hello.Name, c.RemoteAddr().String()).ID,
			Heartbeat:     f.opts.HeartbeatInterval,
			HeartbeatMiss: f.opts.HeartbeatMiss,
			Batch:         f.opts.Batch,
		}
	})
	if err != nil {
		if id != 0 {
			f.reg.MarkDead(id)
		}
		return
	}
	if !f.d.AddMember(id, cn, true) {
		// Closed since the welcome: dismiss it, then read (into a driver that
		// takes nothing now) until it hangs up, so no unread frame resets it.
		defer cn.Close()
		_ = cn.Send(comm.Message{Kind: comm.KindEnd})
	}
	for {
		msg, err := cn.Recv()
		if err != nil {
			f.d.Down(id, err)
			return
		}
		f.d.Deliver(id, msg)
	}
}

// TuneSnapshot reports the self-tuner's current recommendations — what
// the /metrics exposition exports as easyhps_tune_* gauges. The zero
// snapshot (ok=false) means the fleet runs with static knobs.
func (f *Fleet[T]) TuneSnapshot() (tune.Snapshot, bool) {
	tuner := f.d.Tuner()
	if tuner == nil {
		return tune.Snapshot{}, false
	}
	return tuner.Snapshot(), true
}

// TraceEvents returns the recorded scheduling events of the named job
// (running or retained; the latest submitted of that name), or nil when
// unknown.
func (f *Fleet[T]) TraceEvents(name string) []trace.Event {
	var found *core.Job[T]
	for _, r := range f.d.Jobs() {
		if r.Job.Name == name && (found == nil || r.Job.ID > found.ID) {
			found = r.Job
		}
	}
	if found == nil {
		return nil
	}
	return found.Trace.Events()
}

// Snapshot assembles the monitoring view: per-job progress and deficit,
// job-state counts, aggregate queue depth and hunger count, membership,
// and the race-free roll-up of every job's Stats.
func (f *Fleet[T]) Snapshot() Snapshot {
	rows := f.d.Jobs()
	hungers, _ := f.d.Counts()
	s := Snapshot{
		States:  map[string]int{"running": 0, "done": 0, "failed": 0},
		Hungers: hungers,
		Members: f.reg.Metrics(),
	}
	maxServed := 0.0
	for _, r := range rows {
		s.QueueDepth += r.Account.Ready
		maxServed = max(maxServed, r.Account.Served)
	}
	for _, r := range rows {
		jb := r.Job
		st := JobStatus{
			ID:       jb.ID,
			Name:     jb.Name,
			Done:     jb.Engine.Graph().N - jb.Engine.Remaining(),
			Total:    jb.Engine.Graph().N,
			Ready:    r.Account.Ready,
			Weight:   jb.Params.Weight,
			Priority: jb.Params.Priority,
			Stats:    jb.Stats(),
		}
		// The job's own latch decides, not the table it was found in: a
		// job whose Run has returned may still be a step from retirement.
		switch {
		case !jb.Finished():
			st.State = "running"
			st.Inflight = r.Account.Inflight
			st.Deficit = maxServed - r.Account.Served
		case jb.Err() != nil:
			st.State = "failed"
		default:
			st.State = "done"
		}
		s.States[st.State]++
		s.Aggregate.Add(st.Stats)
		s.Jobs = append(s.Jobs, st)
	}
	a := &s.Aggregate
	a.Joins, a.Leaves, a.Deaths, a.LeasesRevoked, a.Reassigned = f.reg.MembershipCounts()
	return s
}
