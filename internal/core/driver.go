package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Driver is the master part of the runtime (Figs. 9-10 of the paper) as
// the I/O around one engine.Pool, for every deployment. The pool and its
// jobs make every scheduling decision; the driver owns the I/O around them
// as synchronous steps — Start, End, Feed, Deliver, Down, Tick — which a
// socket source's goroutines call (StartSender, StartTick) and the
// simulator's event loop calls directly.
//
// Members come from one of two sources. The fixed ranks of a
// comm.Transport (RunContext, RunMasterContext) are added once at start,
// hold the run's one job from admission and are never re-admitted; a rank
// whose sender waits with nothing to draw is hungry. Elastic members
// (internal/fleet, and the simulator's) join, leave and die under a
// Registry, attach each job by a job-spec frame before its first task, are
// swept for heartbeats at every tick and announce hunger with beacons.
// Both hungers end in the same Pool.Hunger.
type Driver[T any] struct {
	cfg   DriverConfig
	clock sched.Clock
	reg   *Registry // nil: the members are fixed ranks

	// mu serializes every call into pool and guards the running jobs by
	// id, the retained finished ones, the members with their waiting flags
	// and the closing of done; a sender with nothing to draw waits on cond.
	mu       sync.Mutex
	cond     *sync.Cond
	pool     *engine.Pool[T]
	jobs     map[int32]*Job[T]
	retained []*Job[T]
	members  map[int]*member

	hungers atomic.Int64 // hunger beacons, and fixed ranks found hungry at a tick
	stale   atomic.Int64 // results for jobs no longer running

	progressMu sync.Mutex
	progressed chan struct{} // nil until Progress asks; closed at the next progress

	done chan struct{}  // closed by Close
	wg   sync.WaitGroup // senders and the ticker
}

// DriverConfig configures a Driver.
type DriverConfig struct {
	// Pool is the scheduling configuration; its CheckInterval is the
	// control tick.
	Pool engine.PoolConfig
	// Clock times leases, ticks and heartbeats (nil: the wall clock).
	Clock sched.Clock
	// Registry, when non-nil, makes the members elastic: any traffic is a
	// heartbeat, and each tick declares dead those silent for more than
	// HeartbeatMiss intervals of HeartbeatInterval. Without it the members
	// are fixed ranks.
	Registry          *Registry
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
	// Cache, when non-nil, is the store whose wire layer the elastic
	// members' known-sets count in.
	Cache *cas.Store
	// RetainJobs is how many finished jobs Jobs keeps listing.
	RetainJobs int
}

// ErrClosed ends the jobs still running when their driver closes, and
// refuses jobs started after.
var ErrClosed = errors.New("core: driver closed")

// Link is a member's end of the wire: a *comm.Conn for an elastic member,
// one rank of a comm.Transport for a fixed one.
type Link interface {
	Send(comm.Message) error
	Close() error
}

// member is the driver's side of one member. id is the member index the
// engine, the pool and the draw order know it by.
type member struct {
	id       int
	link     Link
	idle     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	known    *cas.PeerSet // what it holds of the Delta jobs' blocks
	waiting  bool         // Driver.mu: its sender waits with nothing to draw

	// attachMu orders the attach and detach frames against task sends, and
	// every known-set note against the detach that resets the set.
	// attached holds the jobs the member has kernel state for; it is nil on
	// a fixed rank, which holds the run's one job from admission.
	attachMu sync.Mutex
	attached map[int32]bool
}

func (m *member) close() {
	m.stopOnce.Do(func() {
		close(m.stop)
		m.link.Close()
	})
}

func (m *member) stopped() bool { return closed(m.stop) }

// closed polls a channel that is only ever closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// signalIdle hands the member's sender one idle token; a nil member, one
// the driver does not know, has no sender.
func (m *member) signalIdle() {
	if m == nil {
		return
	}
	select {
	case m.idle <- struct{}{}:
	default:
	}
}

// Job is one DAG job as a driver runs it: fill the exported fields and
// hand it to Start.
type Job[T any] struct {
	ID   int32
	Name string
	// Label prefixes the errors the job ends with.
	Label  string
	Engine *engine.Job[T]
	Params engine.JobParams
	// Meta is the attach frame (comm.KindJobSpec) an elastic member gets
	// before the job's first task.
	Meta   []byte
	Trace  *trace.Recorder // the job's own events, for monitoring
	Closer io.Closer       // closed when the job ends: its checkpoint file

	start    time.Time
	commitMu sync.Mutex // one Complete at a time: members answer concurrently
	done     chan struct{}
	doneOnce sync.Once
	// How the job ended, written once before done closes: read them only
	// after a receive from done.
	err     error
	leaked  int64
	elapsed time.Duration
}

func (jb *Job[T]) fail(err error) error { return fmt.Errorf("%s: %w", jb.Label, err) }

// finish ends the job once: its error, leak audit and makespan.
func (jb *Job[T]) finish(err error, now time.Time) {
	jb.doneOnce.Do(func() {
		jb.err = err
		jb.leaked = int64(jb.Engine.Leaked())
		jb.elapsed = now.Sub(jb.start)
		if jb.Closer != nil {
			jb.Closer.Close()
		}
		close(jb.done)
	})
}

// Finished reports whether the job has ended.
func (jb *Job[T]) Finished() bool { return closed(jb.done) }

// Err is how the job ended: nil while it runs and after a success.
func (jb *Job[T]) Err() error {
	if !jb.Finished() {
		return nil
	}
	return jb.err
}

// Stats is the job's ledger; Leaked and Elapsed are set once it has ended
// and membership counts are the source's.
func (jb *Job[T]) Stats() engine.Stats {
	s := jb.Engine.Counters().Stats()
	if jb.Finished() {
		s.Leaked = jb.leaked
		s.Elapsed = jb.elapsed
	}
	return s
}

// NewJob builds a job for elastic members — a fleet's or the simulator's:
// an unset partition is the advisor's for the members live now under Auto,
// the default otherwise; what jp leaves unset is the pool's; a job with a
// cache key ships against its members' known-sets.
func (d *Driver[T]) NewJob(id int32, p Problem[T], proc dag.Size, jp engine.JobParams, cacheKey string, onProgress func(completed, total int)) (*Job[T], error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	if d.cfg.Pool.Auto && !proc.Valid() {
		cm, _ := p.Kernel.(tune.CostModel)
		proc = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, d.reg.Live(), cm)
	}
	if !proc.Valid() {
		proc = dag.DefaultPartition(p.Size)
	}
	jb := &Job[T]{ID: id, Params: d.pool.Params(jp), Trace: trace.NewWithNow(d.clock.Now)}
	jb.Engine = engine.New(p.Kernel.Pattern(), p.Codec, p.Size, proc, engine.Config[T]{
		TaskTimeout: jb.Params.TaskTimeout,
		MaxAttempts: jb.Params.MaxAttempts,
		Cache:       d.cfg.Cache,
		CacheKey:    cacheKey,
		Delta:       d.cfg.Cache != nil && cacheKey != "",
		Trace:       jb.Trace,
		OnProgress:  onProgress,
	})
	return jb, nil
}

// NewDriver builds a driver, which starts no goroutine; members arrive
// through AddMember, jobs through Start.
func NewDriver[T any](cfg DriverConfig) *Driver[T] {
	if cfg.Clock == nil {
		cfg.Clock = sched.Wall
	}
	d := &Driver[T]{
		cfg:     cfg,
		clock:   cfg.Clock,
		reg:     cfg.Registry,
		pool:    engine.NewPool[T](cfg.Pool),
		jobs:    make(map[int32]*Job[T]),
		members: make(map[int]*member),
		done:    make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// StartTick starts the control tick goroutine (Fig. 10).
func (d *Driver[T]) StartTick() { d.spawn(d.tickLoop) }

// StartSender starts the sender goroutine of member id, unless the driver
// does not hold it or is closed.
func (d *Driver[T]) StartSender(id int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m := d.members[id]; m != nil && !closed(d.done) {
		d.spawn(func() { d.senderLoop(m) })
	}
}

func (d *Driver[T]) spawn(fn func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		fn()
	}()
}

func (d *Driver[T]) progress() {
	d.progressMu.Lock()
	if d.progressed != nil {
		close(d.progressed)
		d.progressed = nil
	}
	d.progressMu.Unlock()
}

// Progress returns a channel closed at the next dispatch, result, tick,
// job start or retirement: take it, check, then wait on it, and no
// progress in between is lost.
func (d *Driver[T]) Progress() <-chan struct{} {
	d.progressMu.Lock()
	defer d.progressMu.Unlock()
	if d.progressed == nil {
		d.progressed = make(chan struct{})
	}
	return d.progressed
}

// running lists the running jobs, under mu.
func (d *Driver[T]) running() []*Job[T] {
	jobs := make([]*Job[T], 0, len(d.jobs))
	for _, jb := range d.jobs {
		jobs = append(jobs, jb)
	}
	return jobs
}

func (d *Driver[T]) memberList() []*member {
	d.mu.Lock()
	defer d.mu.Unlock()
	ms := make([]*member, 0, len(d.members))
	for _, m := range d.members {
		ms = append(ms, m)
	}
	return ms
}

// Tuner is the pool's self-tuning controller, nil unless Auto.
func (d *Driver[T]) Tuner() *tune.Controller { return d.pool.Tuner() }

// Closed reports whether Close has begun.
func (d *Driver[T]) Closed() bool { return closed(d.done) }

// WithPool runs fn with the pool under the driver's lock; fn must neither
// block nor call into the driver.
func (d *Driver[T]) WithPool(fn func(*engine.Pool[T])) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn(d.pool)
}

// Counts returns the hungers (beacons, and fixed ranks found hungry at a
// tick) and the stale results (for jobs no longer running).
func (d *Driver[T]) Counts() (hungers, stale int64) { return d.hungers.Load(), d.stale.Load() }

// JobAccount is a job with its pool account (zero for a retained job).
type JobAccount[T any] struct {
	Job     *Job[T]
	Account engine.Account
}

// Jobs lists the running jobs in submission order, then the retained ones.
func (d *Driver[T]) Jobs() []JobAccount[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	rows := make([]JobAccount[T], 0, len(d.jobs)+len(d.retained))
	for _, a := range d.pool.Accounts() {
		rows = append(rows, JobAccount[T]{d.jobs[a.ID], a})
	}
	for _, jb := range d.retained {
		rows = append(rows, JobAccount[T]{Job: jb})
	}
	return rows
}

// Start enters jb into the pool with the frontier its engine hands out:
// the DAG roots, or what a replayed checkpoint and the cache left. A job
// with nothing left to compute ends at once; one the driver cannot run
// ends with the error Start returns.
func (d *Driver[T]) Start(jb *Job[T]) error {
	jb.done = make(chan struct{})
	jb.start = d.clock.Now()
	frontier, err := jb.Engine.Frontier()
	if err != nil {
		err = jb.fail(err)
	}
	if err != nil || jb.Engine.Finished() {
		jb.finish(err, jb.start)
		return err
	}
	d.mu.Lock()
	if closed(d.done) {
		d.mu.Unlock()
		jb.finish(ErrClosed, jb.start)
		return ErrClosed
	}
	d.jobs[jb.ID] = jb
	d.pool.Add(jb.ID, jb.Engine, jb.Params, frontier, jb.start)
	d.cond.Broadcast()
	d.mu.Unlock()
	d.progress()
	return nil
}

// Wait blocks until jb ends, or ends it with ctx's error when ctx is done
// first, and returns how it ended.
func (d *Driver[T]) Wait(ctx context.Context, jb *Job[T]) error {
	select {
	case <-ctx.Done():
		d.End(jb, ctx.Err())
	case <-jb.done:
	}
	return jb.Err()
}

// End ends jb with err (nil for success) unless it has ended already, and
// takes it out of the pool and off its members. It is idempotent.
func (d *Driver[T]) End(jb *Job[T], err error) {
	defer d.progress()
	jb.finish(err, d.clock.Now())
	d.mu.Lock()
	running := d.unlist(jb)
	d.mu.Unlock()
	if running {
		d.detach(jb)
	}
}

// unlist, under mu, moves jb from the pool to the retained jobs and
// reports whether it was running.
func (d *Driver[T]) unlist(jb *Job[T]) bool {
	if d.jobs[jb.ID] != jb {
		return false
	}
	delete(d.jobs, jb.ID)
	d.pool.Remove(jb.ID)
	if d.cfg.RetainJobs > 0 {
		d.retained = append(d.retained, jb)
		if over := len(d.retained) - d.cfg.RetainJobs; over > 0 {
			d.retained = append([]*Job[T](nil), d.retained[over:]...)
		}
	}
	d.cond.Broadcast()
	return true
}

// detach sends the job-end frame to every member attached to jb.
func (d *Driver[T]) detach(jb *Job[T]) {
	for _, m := range d.memberList() {
		// attachMu is held across the map update and the JobEnd send, so no
		// task or JobSpec can follow the JobEnd (see dispatch).
		m.attachMu.Lock()
		if m.attached[jb.ID] {
			delete(m.attached, jb.ID)
			//lint:ignore blocking-under-lock the detach frame must be ordered against this member's task sends, which only attachMu serializes; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			_ = m.link.Send(comm.Message{Kind: comm.KindJobEnd, Job: jb.ID})
			if len(m.attached) == 0 {
				// The worker drops its block cache with its last job: forget
				// its holdings at the same frame.
				m.known.Reset()
			}
		}
		m.attachMu.Unlock()
	}
}

// AddMember admits the elastic member the registry knows as id, reached
// over link. Once the driver is closed it admits nothing and reports false.
func (d *Driver[T]) AddMember(id int, link Link) bool {
	return d.add(&member{id: id, link: link, known: d.cfg.Cache.NewPeerSet(), attached: make(map[int32]bool)})
}

func (d *Driver[T]) add(m *member) bool {
	m.idle = make(chan struct{}, 4)
	m.stop = make(chan struct{})
	d.mu.Lock()
	defer d.mu.Unlock()
	if closed(d.done) {
		return false
	}
	d.members[m.id] = m
	return true
}

// senderLoop is one worker thread of the master worker pool: each idle
// token of its member is spent by feed (§V.B steps d-e), waiting while
// there is nothing to draw. It tells the member to end on Close.
func (d *Driver[T]) senderLoop(m *member) {
	for {
		select {
		case <-m.idle:
		case <-m.stop:
			return
		case <-d.done:
			_ = m.link.Send(comm.Message{Kind: comm.KindEnd})
			return
		}
		if !d.feed(m, true) {
			if !m.stopped() {
				_ = m.link.Send(comm.Message{Kind: comm.KindEnd})
			}
			return
		}
	}
}

// Feed spends one idle token of member id without blocking: a batch from
// the job the pool picks, leased and shipped. It reports whether the token
// was spent; false means there was nothing to draw for a member held.
func (d *Driver[T]) Feed(id int) bool {
	d.mu.Lock()
	m := d.members[id]
	d.mu.Unlock()
	return m != nil && d.feed(m, false)
}

// feed draws and dispatches batches for m until one spends its idle token:
// a draw whose vertices all finished while queued (a result raced a
// timeout) is followed by another. With wait it blocks for work, and false
// means the driver closed or m stopped.
func (d *Driver[T]) feed(m *member, wait bool) bool {
	for {
		jb, ids, ok := d.nextBatch(m, wait)
		if !ok || d.dispatch(m, jb, ids) {
			return ok
		}
	}
}

// nextBatch draws member m a batch (at most the batch cap in effect), with
// wait blocking until the pool hands one, the driver closes or m stops.
func (d *Driver[T]) nextBatch(m *member, wait bool) (*Job[T], []int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !closed(d.done) && !m.stopped() {
		if id, ids, ok := d.pool.Draw(m.id); ok {
			return d.jobs[id], ids, true
		}
		if !wait {
			break
		}
		m.waiting = true
		d.cond.Wait()
		m.waiting = false
	}
	return nil, nil, false
}

// dispatch leases the drawn vertices of jb to member m and ships the
// granted ones in one message — per entry an attempt stamp and the data
// region m does not hold — attaching the job first if m has not seen it.
// It reports whether m's idle token is spent (engine.Pool.Lease).
func (d *Driver[T]) dispatch(m *member, jb *Job[T], ids []int32) bool {
	defer d.progress()
	if jb.Finished() {
		return false // the draw leaves the pool with the job
	}
	now := d.clock.Now()
	d.mu.Lock()
	if m.stopped() {
		// The member went away while its sender waited for work: hand the
		// draw back for a live member. revoke closes stop before it takes
		// mu, so a lease granted below is one its revocation sees.
		d.pool.Undraw(jb.ID, ids)
		d.cond.Broadcast()
		d.mu.Unlock()
		return true
	}
	grants, spent := d.pool.Lease(jb.ID, m.id, ids, now)
	if len(grants) < len(ids) {
		d.cond.Broadcast() // a held vertex is back in the order, a gone one freed quota room
	}
	d.mu.Unlock()
	if len(grants) == 0 {
		return spent
	}
	d.progress() // the leases are settled; the send below can block
	// Ship under attachMu, serialized against the detach: a job seen
	// finished here is being detached, and a task or spec sent after its
	// JobEnd would kill the worker or leak the job's kernel state there.
	// Drop the batch and unwind its leases.
	m.attachMu.Lock()
	if jb.Finished() {
		m.attachMu.Unlock()
		for _, g := range grants {
			jb.Engine.Unlease(g.Vertex, g.Attempt)
		}
		return false
	}
	var known engine.Known // nil ships every dependency
	if jb.Engine.Delta() {
		known = m.known
	}
	entries := make([]comm.TaskEntry, 0, len(grants))
	var encErr, err error
	bytes := 0
	for _, g := range grants {
		payload, e := jb.Engine.TaskPayload(g.Vertex, known)
		if e != nil {
			encErr = jb.fail(fmt.Errorf("encoding data region of vertex %d: %w", g.Vertex, e))
			break
		}
		entries = append(entries, comm.TaskEntry{Vertex: g.Vertex, Attempt: g.Attempt, Payload: payload})
		bytes += len(payload)
	}
	if encErr == nil {
		jb.Engine.Shipped(m.id, len(entries), bytes)
		if m.attached != nil && !m.attached[jb.ID] {
			// The link is ordered, so the spec always precedes the tasks.
			//lint:ignore blocking-under-lock the attach frame and the task must reach the wire without a detach interleaving, which only attachMu serializes; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			if err = m.link.Send(comm.Message{Kind: comm.KindJobSpec, Job: jb.ID, Payload: jb.Meta}); err == nil {
				m.attached[jb.ID] = true
			}
		}
		if err == nil {
			//lint:ignore blocking-under-lock the task send is serialized against the JobEnd by attachMu; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			err = m.link.Send(comm.TaskMessage(jb.ID, entries))
		}
	}
	m.attachMu.Unlock()
	if encErr != nil {
		d.End(jb, encErr)
	} else if err != nil {
		// The leases just granted are revoked with the member, or expire.
		d.Down(m.id, fmt.Errorf("core: sending %d-task batch to member %d: %w", len(entries), m.id, err))
	}
	return true
}

// Deliver is the receive side (§V.B steps f-h): one message from member
// id, from a fixed rank, an elastic member's reader or a simulated worker.
// Results of different jobs commit concurrently, of one job one at a time.
func (d *Driver[T]) Deliver(id int, msg comm.Message) {
	if closed(d.done) {
		return
	}
	if d.reg != nil {
		d.reg.Beat(id) // any traffic proves liveness
	}
	d.mu.Lock()
	m, jb := d.members[id], d.jobs[msg.Job]
	d.mu.Unlock()
	switch msg.Kind {
	case comm.KindIdle:
		m.signalIdle()
	case comm.KindHeartbeat:
		if m != nil {
			_ = m.link.Send(comm.Message{Kind: comm.KindHeartbeat})
		}
	case comm.KindLeave:
		if d.reg != nil && d.reg.MarkLeft(id) {
			d.revoke(id)
		}
	case comm.KindHunger:
		// The pool may move a backlog's newer half toward the member.
		d.hungers.Add(1)
		d.mu.Lock()
		if d.pool.Hunger(id) {
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	case comm.KindResult, comm.KindResultBatch:
		if msg.Kind == comm.KindResult {
			d.applyResult(m, id, jb, msg.Vertex, msg.Attempt, msg.Payload)
		}
		for _, e := range msg.Batch {
			d.applyResult(m, id, jb, e.Vertex, e.Attempt, e.Payload)
		}
		// More marks a partial flush of a still-executing batch:
		// re-arming the sender now would over-commit the member.
		if !msg.More {
			m.signalIdle()
		}
	default:
		// A kind no worker sends means a corrupted link or version skew.
		d.Down(id, fmt.Errorf("core: member %d sent an unexpected %v frame", id, msg.Kind))
	}
}

// applyResult commits one result through its job's engine and queues what
// it unlocked. A result for a job not running (nil) is stale.
func (d *Driver[T]) applyResult(m *member, id int, jb *Job[T], v, attempt int32, payload []byte) {
	defer d.progress()
	if jb == nil {
		d.stale.Add(1)
		return
	}
	jb.commitMu.Lock()
	ready, accepted, err := jb.Engine.Complete(id, v, attempt, payload, d.clock.Now())
	finished := accepted && jb.Engine.Finished()
	jb.commitMu.Unlock()
	if err != nil {
		d.End(jb, jb.fail(err))
		return
	}
	if !accepted {
		return
	}
	if jb.Engine.Delta() && m != nil {
		// The member holds the block it computed — while the job is
		// attached: after the detach's reset the worker has dropped it.
		m.attachMu.Lock()
		if m.attached == nil || m.attached[jb.ID] {
			m.known.Note(jb.Engine.ResultKey(v))
		}
		m.attachMu.Unlock()
	}
	if d.reg != nil {
		d.reg.NoteCompleted(id)
	}
	if finished {
		d.End(jb, nil)
		return
	}
	d.mu.Lock()
	d.pool.Ready(jb.ID, ready)
	d.cond.Broadcast() // even with nothing ready: the released lease may free quota room
	d.mu.Unlock()
}

// Down handles member id's failure: a broken link, a failed send, a frame
// no worker sends. An elastic member is declared dead and its leases go
// back to their jobs; a fixed rank cannot be replaced, so its failure ends
// every running job with err, unless the transport is closing. After Close
// it does nothing.
func (d *Driver[T]) Down(id int, err error) {
	switch {
	case closed(d.done):
	case d.reg != nil:
		if d.reg.MarkDead(id) {
			d.revoke(id)
		}
	case !errors.Is(err, comm.ErrClosed):
		d.mu.Lock()
		running := d.running()
		d.mu.Unlock()
		for _, jb := range running {
			d.End(jb, err)
		}
	}
}

// revoke forgets a dead or departed elastic member, closing its link, and
// has the pool requeue its leased vertices; this counts toward no
// MaxAttempts.
func (d *Driver[T]) revoke(id int) {
	d.mu.Lock()
	m := d.members[id]
	delete(d.members, id)
	d.mu.Unlock()
	if m != nil {
		m.close() // stop closes before the pool revokes: see dispatch
	}
	d.mu.Lock()
	revoked, requeued := d.pool.Revoke(id)
	d.cond.Broadcast() // wakes the member's own sender, waiting in nextBatch, too
	d.mu.Unlock()
	d.reg.NoteRevoked(revoked, requeued)
}

// tickLoop is the master fault-tolerance thread (Fig. 10).
func (d *Driver[T]) tickLoop() {
	ticker := d.clock.NewTicker(d.cfg.Pool.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.done:
			return
		case now := <-ticker.C():
			d.Tick(now)
		}
	}
}

// Tick is one control tick: the heartbeat sweep of elastic members or the
// hunger of fixed ranks, the pool's tick — deadlines, overtime expiry,
// straggler flags, the tuner — and the end of the jobs it gave up on.
func (d *Driver[T]) Tick(now time.Time) {
	defer d.progress()
	live := 0
	if d.reg != nil {
		for _, id := range d.reg.Sweep(now, d.cfg.HeartbeatInterval, d.cfg.HeartbeatMiss) {
			d.revoke(id)
		}
		live = d.reg.Live()
	}
	d.mu.Lock()
	var hungry []int
	if d.reg == nil {
		// A fixed rank sends no beacon: its sender waiting while it holds no
		// lease is its hunger.
		live = len(d.members)
		for id, m := range d.members {
			if m.waiting {
				hungry = append(hungry, id)
			}
		}
		slices.Sort(hungry)
		for _, id := range hungry {
			load := 0
			for _, jb := range d.jobs {
				load += jb.Engine.Load(id)
			}
			if load == 0 {
				d.hungers.Add(1)
			}
		}
	}
	ended := d.pool.Tick(now, live, d.hungers.Load())
	for _, id := range hungry {
		if d.pool.Hunger(id) {
			break // at most one steal per tick
		}
	}
	over := make([]*Job[T], len(ended))
	for i, end := range ended {
		over[i] = d.jobs[end.ID]
		d.unlist(over[i])
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	for i, end := range ended {
		over[i].finish(over[i].fail(end.Err), now)
		d.detach(over[i])
	}
}

// Close ends the running jobs with ErrClosed and stops the driver: each
// sender sends its member comm.KindEnd, then every link closes.
func (d *Driver[T]) Close() {
	d.mu.Lock()
	var running []*Job[T]
	if !closed(d.done) {
		running = d.running()
		close(d.done)
		d.cond.Broadcast()
	}
	d.mu.Unlock()
	for _, jb := range running {
		jb.finish(ErrClosed, d.clock.Now())
	}
	d.wg.Wait()
	for _, m := range d.memberList() {
		m.close()
	}
}
