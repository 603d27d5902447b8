package engine

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// The scheduling defaults of a pool, and of core's fixed-rank master where
// it has the same knob.
const (
	DefaultBatch          = 1
	DefaultTaskTimeout    = 30 * time.Second
	DefaultMaxAttempts    = 4
	DefaultSpecQuantile   = 0.95
	DefaultSpecMultiplier = 2
	DefaultSpecMinSamples = 8
)

// PoolConfig is what a driver's own options say about scheduling across
// jobs. Zero values take the defaults above.
type PoolConfig struct {
	// Batch bounds how many vertices one draw hands out; a batch never
	// mixes jobs.
	Batch int
	// TaskTimeout, MaxAttempts and DefaultQuota stand in for what a job's
	// JobParams leave unset (a DefaultQuota of 0 is no quota).
	TaskTimeout  time.Duration
	MaxAttempts  int
	DefaultQuota int
	// Speculate makes Tick flag stragglers for backups: attempts older than
	// SpecMultiplier times the SpecQuantile of their job's observed
	// runtimes, never less than SpecFloor (default CheckInterval), once
	// SpecMinSamples vertices of the job have completed.
	Speculate      bool
	SpecQuantile   float64
	SpecMultiplier float64
	SpecMinSamples int
	SpecFloor      time.Duration
	// Steal makes Hunger move backlog toward a starved member.
	Steal bool
	// Auto hands Batch, SpecQuantile and SpecMultiplier to the online tuner
	// as starting points (internal/tune), ticked from Tick, and turns
	// Speculate and Steal on.
	Auto bool
	// CheckInterval is how often the driver calls Tick.
	CheckInterval time.Duration
	// Trace receives the tuner's adjustments; nil records nothing.
	Trace *trace.Recorder
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Auto {
		// Auto means "mitigate stragglers for me": both mechanisms arm, and
		// the tuner owns their thresholds.
		c.Speculate = true
		c.Steal = true
	}
	if c.Batch < 1 {
		c.Batch = DefaultBatch
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = DefaultTaskTimeout
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.SpecQuantile <= 0 || c.SpecQuantile > 1 {
		c.SpecQuantile = DefaultSpecQuantile
	}
	if c.SpecMultiplier <= 1 {
		c.SpecMultiplier = DefaultSpecMultiplier
	}
	if c.SpecMinSamples < 1 {
		c.SpecMinSamples = DefaultSpecMinSamples
	}
	if c.SpecFloor <= 0 {
		// Keeps sub-tick kernels from speculating on scheduling jitter.
		c.SpecFloor = c.CheckInterval
	}
	return c
}

// JobParams is one job's standing in the pool. Zero values take the
// pool's defaults (Pool.Params).
type JobParams struct {
	// Weight is the fair-share weight (default 1): a weight-2 job is
	// entitled to twice the dispatch share of a weight-1 job.
	Weight float64
	// Priority is the priority class. Eligible jobs of a higher class
	// always draw before lower classes; fair share applies within a class.
	Priority int
	// Quota caps the job's leased attempts plus drawn, not yet leased
	// vertices (0 = none): retries and backups count, so one job cannot
	// saturate the pool.
	Quota int
	// MaxAttempts and TaskTimeout are the job's engine.Config values.
	MaxAttempts int
	TaskTimeout time.Duration
	// Timeout ends the job at the first Tick not before that long after
	// it was added (0 = no bound).
	Timeout time.Duration
	// Order is the draw order inside the job: which of its computable
	// vertices a member is handed first, or at all. Nil is the dynamic
	// pool's LIFO stack; core's fixed-rank master sets it from its Policy.
	Order sched.Order
}

// Grant is one vertex Pool.Lease leased: the entry of a task message.
type Grant struct {
	Vertex, Attempt int32
}

// Ended is a job Tick took out of the pool, and why.
type Ended struct {
	ID  int32
	Err error
}

// Account is the pool's view of one running job: what Draw decides on.
type Account struct {
	ID int32
	// Ready is the number of computable vertices queued; Inflight the
	// leased attempts outstanding plus vertices drawn and not yet leased.
	Ready, Inflight int
	// Served is the job's normalized service so far: vertices drawn and
	// kept, divided by its weight.
	Served float64
}

// Pool is the scheduler above the jobs, written once like Job: the table
// of running jobs in submission order and, per job, the ready set behind
// its draw order, the fair-share account and the deadline, behind one
// method per fleet-level event. Its one caller is core.Driver, under the
// fleet's sockets, core's rank transport and the simulator's event loop;
// what the driver keeps is what is I/O — members and their links,
// encoding, the finish latch.
//
// A Pool starts no goroutine, channel or timer, takes no lock and reads no
// clock: the driver serializes every call (under Driver.mu), and
// time, the live-member count and the hunger-beacon count are arguments.
// Params and Tuner read only what NewPool set and need no serializing.
type Pool[T any] struct {
	cfg   PoolConfig
	tuner *tune.Controller // nil without Auto

	jobs  map[int32]*poolJob[T]
	order []*poolJob[T] // running jobs, submission order

	// retired folds the counters of jobs that left, so the tuner's
	// cumulative sample stays monotone.
	retired    tune.Sample
	maxDeficit float64
}

type poolJob[T any] struct {
	id  int32
	job *Job[T]
	JobParams
	deadline time.Time // zero = no bound

	// The computable vertices are queued in Order (JobParams; never nil
	// here). drawn counts vertices Draw popped that Lease or Undraw has not
	// settled: they count against the quota, so concurrent senders cannot
	// overshoot it between draw and grant.
	served float64
	drawn  int
}

func (e *poolJob[T]) inflight() int { return e.job.Inflight() + e.drawn }

// eligible reports whether the job may be handed work right now.
func (e *poolJob[T]) eligible() bool {
	return e.Order.Len() > 0 && (e.Quota <= 0 || e.inflight() < e.Quota)
}

// NewPool builds an empty pool.
func NewPool[T any](cfg PoolConfig) *Pool[T] {
	cfg = cfg.withDefaults()
	p := &Pool[T]{cfg: cfg, jobs: make(map[int32]*poolJob[T])}
	if cfg.Auto {
		p.tuner = tune.New(tune.DefaultLimits(), cfg.Batch,
			cfg.SpecQuantile, cfg.SpecMultiplier, cfg.SpecMinSamples)
	}
	return p
}

// Params fills what jp leaves unset from the pool's configuration. The
// driver builds the job's engine with the returned TaskTimeout and
// MaxAttempts and hands the whole to Add.
func (p *Pool[T]) Params(jp JobParams) JobParams {
	if jp.Weight <= 0 {
		jp.Weight = 1
	}
	if jp.Quota <= 0 {
		jp.Quota = p.cfg.DefaultQuota
	}
	if jp.MaxAttempts <= 0 {
		jp.MaxAttempts = p.cfg.MaxAttempts
	}
	if jp.TaskTimeout <= 0 {
		jp.TaskTimeout = p.cfg.TaskTimeout
	}
	return jp
}

// Tuner is the self-tuning controller, nil unless PoolConfig.Auto.
func (p *Pool[T]) Tuner() *tune.Controller { return p.tuner }

// Add enters job into the running table under the driver's id, with the
// frontier its engine handed out queued and its Timeout counted from now.
func (p *Pool[T]) Add(id int32, job *Job[T], params JobParams, frontier []int32, now time.Time) {
	if params.Order == nil {
		params.Order = &sched.LIFO{}
	}
	e := &poolJob[T]{id: id, job: job, JobParams: params}
	if params.Timeout > 0 {
		e.deadline = now.Add(params.Timeout)
	}
	p.jobs[id] = e
	p.order = append(p.order, e)
	p.push(e, frontier)
}

// Remove takes job id out of the running table, finished or failed, and
// drops what it had queued. Every later call that names it is a no-op, so
// a driver need not order its own events against a job's end.
func (p *Pool[T]) Remove(id int32) {
	e, ok := p.jobs[id]
	if !ok {
		return
	}
	delete(p.jobs, id)
	for i, o := range p.order {
		if o == e {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	s := e.job.Sample()
	s.ProfileSamples = 0 // counters only: its profile no longer speaks for the pool
	p.retired.Fold(s)
}

// pick is weighted max-min fair share: among eligible jobs of the highest
// priority class, the one with the smallest normalized service, the
// earliest submitted on a tie. Two jobs of equal weight converge to equal
// dispatch counts and skewed weights to the weight ratio; a job at its
// quota or with nothing queued drops out without blocking the others. On
// the way it records the spread of service the choice was made under. The
// jobs in skip sit the contest out.
func (p *Pool[T]) pick(skip []*poolJob[T]) *poolJob[T] {
	var best *poolJob[T]
	var lo, hi float64
	for _, e := range p.order {
		if !e.eligible() || slices.Contains(skip, e) {
			continue
		}
		if best == nil {
			best, lo, hi = e, e.served, e.served
			continue
		}
		lo, hi = min(lo, e.served), max(hi, e.served)
		switch {
		case e.Priority > best.Priority:
			best = e
		case e.Priority < best.Priority:
		case e.served < best.served:
			best = e
		}
	}
	p.maxDeficit = max(p.maxDeficit, hi-lo)
	return best
}

// Draw pops the next batch for idle member: of the job pick names, what its
// order hands the member first, up to the batch cap in effect clamped to the
// job's quota room (never under one), charged to its account. A job whose
// order holds nothing for this member — BCW vertices are their owner's
// alone — is passed over for the next pick. ok is false when no job is
// eligible; the driver then waits for an event that queues work or frees
// quota room. Every draw is settled by one Lease or Undraw.
func (p *Pool[T]) Draw(member int) (id int32, ids []int32, ok bool) {
	var skip []*poolJob[T]
	for e := p.pick(nil); e != nil; e = p.pick(skip) {
		n := p.tuner.BatchCapOr(p.cfg.Batch)
		if e.Quota > 0 {
			n = min(n, e.Quota-e.inflight())
		}
		if ids = e.Order.Pop(member, max(n, 1)); len(ids) > 0 {
			e.served += float64(len(ids)) / e.Weight
			e.drawn += len(ids)
			return e.id, ids, true
		}
		skip = append(skip, e)
	}
	return 0, nil, false
}

// Lease settles a draw by leasing it to member: Granted and Backup
// vertices come back as the grants to ship, in order, entry k watched for
// k+1 task timeouts; a Gone vertex is dropped; a Held one — flagged for a
// backup, and member runs its original — goes back on the stack for
// another member, its charge refunded. spent reports whether the member's
// idle token is used up: not when every vertex was Gone, so that the
// driver draws again at once, but also when all were Held, or it would pop
// the same vertices forever. A job that has left the pool grants nothing.
func (p *Pool[T]) Lease(id int32, member int, ids []int32, now time.Time) (grants []Grant, spent bool) {
	e, ok := p.jobs[id]
	if !ok {
		return nil, false
	}
	e.drawn -= len(ids)
	var held []int32
	for _, v := range ids {
		attempt, out := e.job.Lease(member, v, len(grants), now)
		switch out {
		case Held:
			held = append(held, v)
		case Granted, Backup:
			grants = append(grants, Grant{Vertex: v, Attempt: attempt})
		}
	}
	p.requeue(e, held)
	return grants, len(grants) > 0 || len(held) > 0
}

// Undraw settles a draw the driver could not lease — the member went away
// while its sender waited — by putting it back, charge refunded.
func (p *Pool[T]) Undraw(id int32, ids []int32) {
	if e, ok := p.jobs[id]; ok {
		e.drawn -= len(ids)
		p.requeue(e, ids)
	}
}

// Ready queues the vertices job id's Complete returned. They were never
// drawn, so no charge is refunded.
func (p *Pool[T]) Ready(id int32, ids []int32) {
	if e, ok := p.jobs[id]; ok {
		p.push(e, ids)
	}
}

// push queues vertices that carry no charge: newly computable, or flagged
// for a backup.
func (p *Pool[T]) push(e *poolJob[T], ids []int32) {
	if len(ids) == 0 {
		return
	}
	e.Order.Push(ids...)
	e.job.cfg.Trace.Ready(e.Order.Len())
}

// requeue puts back vertices that were drawn before. They were charged on
// that draw; the refund keeps a job from paying fair share twice for work
// it never kept.
func (p *Pool[T]) requeue(e *poolJob[T], ids []int32) {
	e.served -= float64(len(ids)) / e.Weight
	p.push(e, ids)
}

// Hunger answers a member that sits idle while others hold a backlog: of
// every (job, member) pair the deepest backlog gives up its newer half
// (Job.StealFrom), requeued on that job's stack, where the next Draw finds
// it under the same fair share. Nothing moves while any job has queued
// work — an idle member draws that without help — nor while the beggar
// holds a lease of its own. It reports whether anything was requeued.
func (p *Pool[T]) Hunger(member int) bool {
	if !p.cfg.Steal {
		return false
	}
	var from *poolJob[T]
	victim, deepest := 0, 1
	for _, e := range p.order {
		if e.Order.Len() > 0 || e.job.Load(member) > 0 {
			return false
		}
		if m, n := e.job.Deepest(member); n > deepest {
			from, victim, deepest = e, m, n
		}
	}
	if from == nil {
		return false
	}
	stolen := from.job.StealFrom(victim, member)
	p.requeue(from, stolen)
	return len(stolen) > 0
}

// Revoke drops every lease member holds, job by job — it died or left —
// and puts each uncovered vertex back on the stack of the job it belongs
// to. It returns the totals the membership registry counts.
func (p *Pool[T]) Revoke(member int) (revoked, requeued int) {
	for _, e := range p.order {
		n, requeue := e.job.Revoke(member)
		revoked += n
		requeued += len(requeue)
		p.requeue(e, requeue)
	}
	return revoked, requeued
}

// Tick is one control tick at now. Job by job in submission order: the
// deadline, overtime expiry with the job's MaxAttempts cap — so a poisoned
// job fails alone — then, while the job has nothing queued, straggler
// flagging with a budget of one backup per live member. A job that is over
// leaves the pool and is returned with the reason, for the driver to end
// (and to name: the pool knows a job by its id alone).
// Last, under Auto, the tuner sees the tick's sample — every running
// job's, folded over the retired baseline, with the driver's hunger-beacon
// count — and an adjustment is traced.
func (p *Pool[T]) Tick(now time.Time, live int, hungers int64) []Ended {
	var ended []Ended
	for i := 0; i < len(p.order); {
		e := p.order[i]
		if err := p.tickJob(e, now, live); err != nil {
			ended = append(ended, Ended{ID: e.id, Err: err})
			p.Remove(e.id)
			continue
		}
		i++
	}
	if p.tuner != nil {
		s := p.retired
		for _, e := range p.order {
			s.Fold(e.job.Sample())
		}
		s.Hungers = hungers
		if d := p.tuner.Tick(s); d.Changed {
			p.cfg.Trace.Tune(d.BatchCap, d.Reason)
		}
	}
	return ended
}

func (p *Pool[T]) tickJob(e *poolJob[T], now time.Time, live int) error {
	if !e.deadline.IsZero() && !now.Before(e.deadline) {
		return fmt.Errorf("exceeded its %v timeout with %d vertices remaining", e.Timeout, e.job.Remaining())
	}
	requeue, err := e.job.Expire(now)
	if err != nil {
		return err
	}
	p.requeue(e, requeue)
	if p.cfg.Speculate && e.Order.Len() == 0 {
		// Idle capacity takes queued work first.
		q, mult := p.tuner.SpecParamsOr(p.cfg.SpecQuantile, p.cfg.SpecMultiplier)
		p.push(e, e.job.FlagStragglers(now, q, mult, p.cfg.SpecFloor, p.cfg.SpecMinSamples, live))
	}
	return nil
}

// Accounts lists the running jobs in submission order.
func (p *Pool[T]) Accounts() []Account {
	out := make([]Account, len(p.order))
	for i, e := range p.order {
		out[i] = Account{ID: e.id, Ready: e.Order.Len(), Inflight: e.inflight(), Served: e.served}
	}
	return out
}

// MaxDeficit is the largest spread of normalized service (most served
// minus least) among the eligible jobs of any draw so far: the realized
// fair-share bound of the run.
func (p *Pool[T]) MaxDeficit() float64 { return p.maxDeficit }
