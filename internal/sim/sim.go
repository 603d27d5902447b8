// Package sim is the deterministic cluster simulator: the two state
// machines the master driver (core.Driver) runs — engine.Job (one job's
// attempt arbitration, leases, overtime, runtime profile, DAG parsing,
// block store and cross-job result cache) and engine.Pool (ready stacks, the fair-share
// draw, the hunger pass, revocation across jobs, the control tick and the
// tuner) — with its elastic membership table (core.Registry) and the
// worker's compute (core.TaskRunner), driven by a single-threaded
// discrete-event loop on a sched.FakeClock instead of sockets.
//
// Workers are simulated: each is a speed factor, a task queue and a
// liveness flag, not a goroutine or a socket. Faults (kill, join,
// partition, slow-down, burst submission) are scripted at virtual
// timestamps, service times are drawn from a seeded RNG, and every
// scheduling decision lands in a virtual-time trace.Recorder. The result
// is the determinism contract the regression suite is built on: the same
// scenario with the same seed yields a byte-identical event trace
// (trace.Format), and any seed yields bit-identical DP results, because
// the kernels are pure functions of their data dependencies.
//
// Every scheduling decision — which job draws, how large the batch, what a
// lease, an expiry, a steal or a backup does — is made by the shipped code,
// so a scenario assertion is a statement about the production scheduler,
// checked at scales (1000 workers) the CI box cannot host for real. What is
// simulated is what the driver does with I/O: workers, the wire, heartbeats,
// and the moment a member counts as idle or hungry (docs/SIM.md).
package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Options configures one simulated cluster. Zero values take the same
// defaults as the production fleet where a counterpart exists.
type Options struct {
	// Workers is the number of workers admitted before virtual time 0.
	Workers int
	// Batch bounds vertices per dispatch (default 1).
	Batch int
	// TaskTimeout is the per-vertex overtime bound (default 30s).
	TaskTimeout time.Duration
	// CheckInterval is the control tick period: heartbeats, sweep,
	// overtime expiry and speculation all run on it (default 250ms).
	CheckInterval time.Duration
	// MaxAttempts bounds overtime redistributions per vertex (default 4).
	MaxAttempts int
	// HeartbeatInterval and HeartbeatMiss size the membership sweep
	// (defaults 250ms, 3). Simulated workers beat on every control tick
	// unless partitioned or dead.
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
	// Speculate enables profile-driven backup dispatch with the fleet's
	// threshold machinery.
	Speculate      bool
	SpecQuantile   float64
	SpecMultiplier float64
	SpecMinSamples int
	SpecFloor      time.Duration
	// Steal enables backlog stealing toward idle workers when no job
	// has ready vertices.
	Steal bool
	// Cache, when non-nil, is the cross-job content-addressed result
	// store probed for each computable vertex of cache-keyed jobs.
	Cache *cas.Store
	// Seed seeds the service-time and fault-selection RNG.
	Seed int64
	// Cost is the nominal per-vertex service time (default 1ms); Jitter
	// widens it to Cost*(1 ± Jitter) uniformly. Jobs may override Cost.
	Cost   time.Duration
	Jitter float64
	// Horizon aborts the simulation when virtual time passes it, failing
	// every unfinished job (default 1h) — the guard that turns a
	// scheduling livelock into a test failure instead of a hang.
	Horizon time.Duration
	// Auto runs the self-tuning controller on every control tick: the
	// batch cap and speculation thresholds above become starting points
	// that adapt to the observed workload, unset job partitions come
	// from the cost-model advisor, and speculation plus stealing are
	// enabled (auto means the system owns the schedule). Mirrors the
	// production -auto flag.
	Auto bool
}

// withDefaults fills the defaults of what the simulator itself reads; the
// scheduling knobs take theirs in engine.NewPool, like the fleet's.
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
	if o.Cost <= 0 {
		o.Cost = time.Millisecond
	}
	if o.Horizon <= 0 {
		o.Horizon = time.Hour
	}
	return o
}

// Cluster is one simulated fleet: a virtual clock, a membership
// registry, scripted workers and any number of concurrently scheduled
// jobs. Build it with New, script faults and submissions, then Run.
// A Cluster is single-threaded and not reusable after Run.
type Cluster struct {
	opts  Options
	clock *sched.FakeClock
	epoch time.Time
	rng   *rand.Rand
	reg   *core.Registry
	tr    *trace.Recorder // membership events, virtual-time stamped

	pq  eventHeap
	seq int64

	workers  []*simWorker // admit order
	byMember map[int]*simWorker
	idle     []int // FIFO of idle member ids (stale tokens skipped lazily)

	jobs []*simJob // every submitted job, submission order: jobs[id-1]
	ran  bool

	// pool schedules the activated, unfinished jobs: the fleet's own.
	pool *engine.Pool[int32]
}

// New builds an empty simulated cluster. Script it (Submit, JoinAt,
// KillAt, ...) and then call Run exactly once.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	epoch := time.Unix(0, 0).UTC()
	clock := sched.NewFakeClock(epoch)
	c := &Cluster{
		opts:     opts,
		clock:    clock,
		epoch:    epoch,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		byMember: make(map[int]*simWorker),
	}
	c.tr = trace.NewWithNow(clock.Now)
	c.reg = core.NewRegistry(c.tr, clock)
	c.pool = engine.NewPool[int32](engine.PoolConfig{
		Batch:          opts.Batch,
		TaskTimeout:    opts.TaskTimeout,
		MaxAttempts:    opts.MaxAttempts,
		Speculate:      opts.Speculate,
		SpecQuantile:   opts.SpecQuantile,
		SpecMultiplier: opts.SpecMultiplier,
		SpecMinSamples: opts.SpecMinSamples,
		SpecFloor:      opts.SpecFloor,
		Steal:          opts.Steal,
		Auto:           opts.Auto,
		CheckInterval:  opts.CheckInterval,
		Trace:          c.tr,
	})
	for i := 0; i < opts.Workers; i++ {
		c.admit()
	}
	return c
}

func (c *Cluster) now() time.Time { return c.clock.Now() }

// At schedules an arbitrary scripted action at virtual offset d.
func (c *Cluster) At(d time.Duration, fn func()) {
	c.schedule(c.epoch.Add(d), fn)
}

// Submit schedules job spec for submission at virtual offset d and
// returns its handle; results are valid once Run returns. Several
// submissions at the same offset form a burst, processed in call order.
func (c *Cluster) Submit(d time.Duration, spec JobSpec) (*Job, error) {
	jb, err := c.newJob(spec)
	if err != nil {
		return nil, err
	}
	c.jobs = append(c.jobs, jb)
	c.At(d, func() { c.activate(jb) })
	return &Job{jb: jb}, nil
}

// JoinAt scripts n workers joining at virtual offset d.
func (c *Cluster) JoinAt(d time.Duration, n int) {
	c.At(d, func() {
		for i := 0; i < n; i++ {
			c.admit()
		}
		c.dispatchAll()
	})
}

// KillAt scripts the death of the idx-th admitted worker (0-based, in
// admit order) at virtual offset d. Killing an already-dead worker is a
// no-op.
func (c *Cluster) KillAt(d time.Duration, idx int) {
	c.At(d, func() { c.kill(c.workerAt(idx)) })
}

// KillRandomAt scripts the death of n distinct alive workers at virtual
// offset d, drawn from the seeded RNG — the "10% of the fleet dies"
// fault. Fewer than n alive workers kills them all.
func (c *Cluster) KillRandomAt(d time.Duration, n int) {
	c.At(d, func() {
		alive := make([]*simWorker, 0, len(c.workers))
		for _, w := range c.workers {
			if w.alive {
				alive = append(alive, w)
			}
		}
		c.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		if n > len(alive) {
			n = len(alive)
		}
		for _, w := range alive[:n] {
			c.kill(w)
		}
		c.dispatchAll()
	})
}

// PartitionAt scripts a network partition of the idx-th worker for dur:
// it stops heartbeating and its results are dropped, but it keeps
// computing. If the partition outlives the sweep window the master
// declares it dead and revokes its leases; a heal after that leaves a
// zombie whose late results are refused by attempt arbitration.
func (c *Cluster) PartitionAt(d time.Duration, idx int, dur time.Duration) {
	c.At(d, func() {
		if w := c.workerAt(idx); w != nil && w.alive {
			w.partitioned = true
		}
	})
	c.At(d+dur, func() {
		if w := c.workerAt(idx); w != nil && w.alive {
			w.partitioned = false
			if !w.declaredDead {
				c.noteIdleIfFree(w)
				c.dispatchAll()
			}
		}
	})
}

// CancelAt scripts a client cancellation of the named job at virtual
// offset d: the job reaches its terminal state immediately, in-flight
// frames are dropped when workers reach them, and its leases count as
// leaked in the job's stats. Cancelling a finished or unknown job is a
// no-op, like a late DELETE against the job service.
func (c *Cluster) CancelAt(d time.Duration, name string) {
	c.At(d, func() {
		for _, jb := range c.jobs {
			if jb.spec.Name == name && jb.active && !jb.done {
				c.finish(jb, fmt.Errorf("sim: job %q cancelled by script", name))
				c.dispatchAll()
			}
		}
	})
}

// SlowAt scripts a speed change of the idx-th worker at virtual offset
// d: factor multiplies every service time drawn from then on (1 =
// nominal, 20 = a 20x straggler). Stepped calls form a speed curve.
func (c *Cluster) SlowAt(d time.Duration, idx int, factor float64) {
	c.At(d, func() {
		if w := c.workerAt(idx); w != nil && factor > 0 {
			w.speed = factor
		}
	})
}

func (c *Cluster) workerAt(idx int) *simWorker {
	if idx < 0 || idx >= len(c.workers) {
		return nil
	}
	return c.workers[idx]
}

// admit registers one fresh worker and queues it for dispatch.
func (c *Cluster) admit() *simWorker {
	m := c.reg.Admit(fmt.Sprintf("w%d", len(c.workers)), "sim")
	w := &simWorker{member: m.ID, alive: true, speed: 1}
	c.workers = append(c.workers, w)
	c.byMember[w.member] = w
	c.idle = append(c.idle, w.member)
	return w
}

// kill marks w dead immediately (process crash): the registry learns at
// once — unlike a partition, which it only discovers by sweep — its
// leases are revoked, and its in-flight work disappears.
func (c *Cluster) kill(w *simWorker) {
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	w.gen++ // cancels the pending completion event, if any
	w.cur = nil
	w.queue = nil
	if !w.declaredDead {
		w.declaredDead = true
		c.reg.MarkDead(w.member)
		c.revoke(w.member)
	}
	c.dispatchAll()
}

// revoke has the pool release every lease the member holds across all
// jobs and requeue the uncovered vertices.
func (c *Cluster) revoke(member int) {
	c.reg.NoteRevoked(c.pool.Revoke(member))
}

// Run executes the scripted simulation to completion: until every
// submitted job reached a terminal state and all scripted events fired,
// or the horizon passed. It may be called once.
func (c *Cluster) Run() error {
	if c.ran {
		return fmt.Errorf("sim: Run called twice")
	}
	c.ran = true
	if len(c.jobs) == 0 {
		return fmt.Errorf("sim: no jobs submitted")
	}
	c.scheduleTick()
	horizon := c.epoch.Add(c.opts.Horizon)
	for c.pq.Len() > 0 {
		e := c.pq[0]
		if e.at.After(horizon) {
			for _, jb := range c.jobs {
				if !jb.done && jb.active {
					c.finish(jb, fmt.Errorf("sim: job %q unfinished at the %v horizon with %d vertices remaining",
						jb.spec.Name, c.opts.Horizon, jb.eng.Remaining()))
				} else if !jb.active {
					c.finish(jb, fmt.Errorf("sim: job %q never activated before the %v horizon", jb.spec.Name, c.opts.Horizon))
				}
			}
			return fmt.Errorf("sim: horizon %v exceeded with unfinished work", c.opts.Horizon)
		}
		popped := c.nextEvent()
		if d := popped.at.Sub(c.now()); d > 0 {
			c.clock.Advance(d)
		}
		popped.fn()
		if c.finishedAll() {
			break
		}
	}
	if !c.finishedAll() {
		// The queue drained with jobs still open: scheduling starved
		// (e.g. every worker dead and no tick rescheduled).
		for _, jb := range c.jobs {
			if !jb.done {
				c.finish(jb, fmt.Errorf("sim: job %q starved: event queue drained with %d vertices remaining",
					jb.spec.Name, jb.eng.Remaining()))
			}
		}
		return fmt.Errorf("sim: event queue drained with unfinished jobs")
	}
	return nil
}

func (c *Cluster) finishedAll() bool {
	for _, jb := range c.jobs {
		if !jb.done {
			return false
		}
	}
	return true
}

// scheduleTick runs the control loop: beat live workers, sweep for
// silent ones, the pool's tick (deadlines, overtime expiry, straggler
// flags, the tuner), dispatch — then re-arm until every job is done. No
// simulated worker sends a hunger beacon, so the tick's count is 0.
func (c *Cluster) scheduleTick() {
	c.after(c.opts.CheckInterval, func() {
		now := c.now()
		for _, w := range c.workers {
			if w.alive && !w.partitioned && !w.declaredDead {
				c.reg.Beat(w.member)
			}
		}
		for _, id := range c.reg.Sweep(now, c.opts.HeartbeatInterval, c.opts.HeartbeatMiss) {
			// A swept member was partitioned past the miss window: revoke
			// its leases. The worker itself keeps computing — its results
			// are refused as stale, exactly like a real partitioned
			// worker whose connection the master tore down.
			if w := c.byMember[id]; w != nil && !w.declaredDead {
				w.declaredDead = true
				c.revoke(id)
			}
		}
		for _, end := range c.pool.Tick(now, c.reg.Live(), 0) {
			jb := c.jobs[end.ID-1]
			c.finish(jb, fmt.Errorf("sim: job %q: %w", jb.spec.Name, end.Err))
		}
		c.dispatchAll()
		if !c.finishedAll() {
			c.scheduleTick()
		}
	})
}

// Tuner exposes the self-tuning controller (nil unless Options.Auto),
// for assertions on converged recommendations.
func (c *Cluster) Tuner() *tune.Controller { return c.pool.Tuner() }

// Trace renders the full event stream of the run in canonical form:
// the membership stream first, then each job's scheduling stream in
// submission order. Byte-equal outputs mean identical schedules.
func (c *Cluster) Trace() string {
	var b strings.Builder
	b.WriteString("# cluster\n")
	b.WriteString(trace.Format(c.tr.Events()))
	for _, jb := range c.jobs {
		fmt.Fprintf(&b, "# job %s\n", jb.spec.Name)
		b.WriteString(trace.Format(jb.tr.Events()))
	}
	return b.String()
}

// Registry exposes the membership table (metrics assertions).
func (c *Cluster) Registry() *core.Registry { return c.reg }

// MemberEvents returns the recorded membership transitions.
func (c *Cluster) MemberEvents() []trace.Event { return c.tr.Events() }

// Elapsed is the virtual makespan of the whole simulation.
func (c *Cluster) Elapsed() time.Duration { return c.now().Sub(c.epoch) }

// MaxDeficit is the largest normalized-service spread (max Served - min
// Served) observed across eligible jobs at any scheduling decision: the
// realized weighted fair-share bound of the run.
func (c *Cluster) MaxDeficit() float64 { return c.pool.MaxDeficit() }
