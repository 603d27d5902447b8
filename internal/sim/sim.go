// Package sim is the deterministic cluster simulator: the shipped master
// driver (core.Driver, over engine.Job and engine.Pool) with its membership
// table (core.Registry) and the shipped worker state and compute
// (core.Attached, core.TaskRunner), stepped by a single-threaded
// discrete-event loop on a sched.FakeClock instead of goroutines and
// sockets.
//
// Workers are simulated: each is a speed factor, a frame queue and
// liveness flags, and it is the driver's Link to its member. Faults (kill,
// join, partition, slow-down, burst submission) are scripted at virtual
// timestamps, service times are drawn from a seeded RNG, and every
// scheduling decision lands in a virtual-time trace.Recorder: the same
// scenario with the same seed yields a byte-identical event trace
// (trace.Format), and any seed yields bit-identical DP results.
//
// Every scheduling decision and the driver's frame order are the shipped
// code, so a scenario assertion is a statement about the production
// master, checked at scales (1000 workers) the CI box cannot host for
// real. What is simulated is the I/O around it: workers, the wire,
// heartbeats, and the moment a member counts as idle or hungry
// (docs/SIM.md). Every frame is checked against the protocol order a real
// worker relies on, and a violation fails the run.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/comm"
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
	// Pool holds the scheduling knobs, the fleet's: batch bound, overtime,
	// attempt cap, speculation, stealing, auto and the control tick period
	// (CheckInterval: heartbeats, sweep, overtime expiry and speculation all
	// run on it; default HeartbeatInterval). Its zero values take
	// engine.NewPool's defaults; its Trace is the cluster's own.
	Pool engine.PoolConfig
	// HeartbeatInterval and HeartbeatMiss size the membership sweep
	// (defaults 250ms, 3). Simulated workers beat on every control tick
	// unless partitioned or dead.
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
	// Cache, when non-nil, is the cross-job content-addressed result
	// store probed for each computable vertex of cache-keyed jobs.
	Cache *cas.Store
	// Seed seeds the service-time and fault-selection RNG.
	Seed int64
	// Cost is the nominal per-vertex service time (default 1ms); Jitter
	// widens it to Cost*(1 ± Jitter) uniformly. Jobs may override Cost.
	Cost   time.Duration
	Jitter float64
	// Latency is the wire: a worker spends Latency.Delay(payload bytes) of
	// its own time on each task frame it receives and each result frame it
	// sends, beside the service time. The zero value is a free wire.
	Latency comm.LatencyModel
	// Horizon aborts the simulation when virtual time passes it, failing
	// every unfinished job (default 1h) — the guard that turns a
	// scheduling livelock into a test failure instead of a hang.
	Horizon time.Duration
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
	if o.Pool.CheckInterval <= 0 {
		o.Pool.CheckInterval = o.HeartbeatInterval
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
// registry, the master driver, scripted workers and any number of
// concurrently scheduled jobs. Build it with New, script faults and
// submissions, then Run. A Cluster is single-threaded and not reusable
// after Run.
type Cluster struct {
	opts  Options
	clock *sched.FakeClock
	epoch time.Time
	rng   *rand.Rand
	reg   *core.Registry
	tr    *trace.Recorder // membership events, virtual-time stamped

	pq  eventHeap
	seq int64

	workers []*simWorker // admit order: member id k is workers[k-1]
	idle    []int        // FIFO of idle member ids (stale tokens skipped lazily)

	jobs []*Job // every submitted job, submission order: jobs[id-1]
	ran  bool

	// d is the fleet's master driver, its members the workers.
	d *core.Driver[int32]
	// violation is the first frame out of protocol order; it ends the run.
	violation error
}

// errProtocol marks a run the protocol-order checker stopped.
var errProtocol = errors.New("sim: protocol violation")

// violate records a frame or task a real worker would have refused.
func (c *Cluster) violate(err error) {
	if c.violation == nil {
		c.violation = fmt.Errorf("%w: %w", errProtocol, err)
	}
}

// New builds an empty simulated cluster. Script it (Submit, JoinAt,
// KillAt, ...) and then call Run exactly once.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	epoch := time.Unix(0, 0).UTC()
	clock := sched.NewFakeClock(epoch)
	c := &Cluster{
		opts:  opts,
		clock: clock,
		epoch: epoch,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
	c.tr = trace.NewWithNow(clock.Now)
	c.reg = core.NewRegistry(c.tr, clock)
	pool := opts.Pool
	pool.Trace = c.tr
	c.d = core.NewDriver[int32](core.DriverConfig{
		Pool:              pool,
		Clock:             clock,
		Registry:          c.reg,
		HeartbeatInterval: opts.HeartbeatInterval,
		HeartbeatMiss:     opts.HeartbeatMiss,
		Cache:             opts.Cache,
	})
	for i := 0; i < opts.Workers; i++ {
		c.admit()
	}
	return c
}

// At schedules an arbitrary scripted action at virtual offset d.
func (c *Cluster) At(d time.Duration, fn func()) {
	c.schedule(c.epoch.Add(d), fn)
}

// Submit schedules job spec for submission at virtual offset d and
// returns its handle; results are valid once Run returns. Several
// submissions at the same offset form a burst, processed in call order.
func (c *Cluster) Submit(d time.Duration, spec JobSpec) (*Job, error) {
	if err := spec.Problem.Check(); err != nil {
		return nil, fmt.Errorf("sim: job %q: %w", spec.Name, err)
	}
	if spec.Cost <= 0 {
		spec.Cost = c.opts.Cost
	}
	jb := &Job{id: int32(len(c.jobs) + 1), spec: spec}
	c.jobs = append(c.jobs, jb)
	c.At(d, func() { c.activate(jb) })
	return jb, nil
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
		for _, w := range alive[:min(n, len(alive))] {
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
// offset d: the driver ends the job immediately, in-flight frames are
// dropped unanswered when workers reach them, and its leases count as
// leaked in the job's stats. Cancelling a finished or unknown job is a
// no-op, like a late DELETE against the job service.
func (c *Cluster) CancelAt(d time.Duration, name string) {
	c.At(d, func() {
		for _, jb := range c.jobs {
			if jb.spec.Name == name && jb.job != nil && !jb.job.Finished() {
				c.d.End(jb.job, fmt.Errorf("sim: job %q cancelled by script", name))
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

// admit registers one fresh worker with the registry and the driver and
// queues it for dispatch.
func (c *Cluster) admit() {
	m := c.reg.Admit(fmt.Sprintf("w%d", len(c.workers)), "sim")
	w := &simWorker{c: c, member: m.ID, alive: true, speed: 1,
		held: core.NewAttached[int32](), attached: make(map[int32]bool)}
	c.workers = append(c.workers, w)
	c.d.AddMember(w.member, w)
	c.idle = append(c.idle, w.member)
	c.armHunger(w)
}

// kill marks w dead immediately (process crash): its in-flight work
// disappears and the driver learns at once — unlike a partition, which it
// only discovers by sweep — and revokes its leases.
func (c *Cluster) kill(w *simWorker) {
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	w.gen++ // cancels the pending completion event, if any
	w.cur = nil
	w.queue = nil
	c.d.Down(w.member, errors.New("sim: worker killed"))
	c.dispatchAll()
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
	var err error
	for err == nil && !c.finishedAll() {
		switch {
		case c.pq.Len() == 0: // scheduling starved: every worker dead, say
			err = errors.New("sim: event queue drained with unfinished jobs")
		case c.pq[0].at.After(horizon):
			err = fmt.Errorf("sim: horizon %v exceeded with unfinished work", c.opts.Horizon)
		default:
			e := heap.Pop(&c.pq).(*event)
			c.clock.Advance(e.at.Sub(c.clock.Now()))
			e.fn()
			err = c.violation
		}
	}
	if err != nil {
		for _, jb := range c.jobs {
			c.end(jb, err)
		}
	}
	return err
}

func (c *Cluster) finishedAll() bool {
	for _, jb := range c.jobs {
		if !jb.finished() {
			return false
		}
	}
	return true
}

// scheduleTick runs the control loop: heartbeats from the live workers,
// then the driver's tick — the sweep, which revokes a member partitioned
// past the miss window (the worker itself keeps computing, and its results
// are refused as stale, exactly like a real partitioned worker whose
// connection the master tore down), deadlines, overtime expiry, straggler
// flags and the tuner, which sees the hunger beacons — then dispatch, and
// re-arm until every job is done.
func (c *Cluster) scheduleTick() {
	c.after(c.opts.Pool.CheckInterval, func() {
		for _, w := range c.workers {
			if w.alive && !w.partitioned && !w.declaredDead {
				c.d.Deliver(w.member, comm.Message{Kind: comm.KindHeartbeat})
			}
		}
		c.d.Tick(c.clock.Now())
		c.dispatchAll()
		if !c.finishedAll() {
			c.scheduleTick()
		}
	})
}

// Tuner exposes the self-tuning controller (nil unless Options.Auto),
// for assertions on converged recommendations.
func (c *Cluster) Tuner() *tune.Controller { return c.d.Tuner() }

// Trace renders the full event stream of the run in canonical form:
// the membership stream first, then each job's scheduling stream in
// submission order. Byte-equal outputs mean identical schedules.
func (c *Cluster) Trace() string {
	var b strings.Builder
	b.WriteString("# cluster\n")
	b.WriteString(trace.Format(c.tr.Events()))
	for _, jb := range c.jobs {
		fmt.Fprintf(&b, "# job %s\n", jb.spec.Name)
		b.WriteString(trace.Format(jb.recorder().Events()))
	}
	return b.String()
}

// Elapsed is the virtual makespan of the whole simulation.
func (c *Cluster) Elapsed() time.Duration { return c.clock.Now().Sub(c.epoch) }

// MaxDeficit is the largest normalized-service spread (max Served - min
// Served) observed across eligible jobs at any scheduling decision: the
// realized weighted fair-share bound of the run.
func (c *Cluster) MaxDeficit() float64 {
	var v float64
	c.d.WithPool(func(p *engine.Pool[int32]) { v = p.MaxDeficit() })
	return v
}
