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
// as synchronous steps — Start, End, Deliver, Down, Tick — which the
// goroutines of RunContext and a fleet call (a member's sender,
// StartTick) and the simulator's event loop calls directly.
//
// Members come from one source, a Registry: a fleet's — every worker
// process is one, and the job service's own members in process — the
// in-process members of RunContext, and the simulator's. They join, leave
// and die under it and attach each job by a job-spec frame before its
// first task; all but the in-process ones are swept for heartbeats at every
// tick.
//
// Which member draws next is one rule for all (§V.B steps d-e): a member
// whose idle token comes back joins the back of the parked queue, and each
// step that queues work or frees quota room walks the queue from the front
// (feed). Each tick runs the pool's hunger pass for the parked members
// (Tick): hunger is read off the master, not announced.
type Driver[T any] struct {
	cfg   DriverConfig
	clock sched.Clock
	reg   *Registry

	// mu serializes every call into pool and guards the running jobs by
	// id, the retained finished ones, the members, the parked queue and
	// handed draws, and the closing of done.
	mu       sync.Mutex
	pool     *engine.Pool[T]
	jobs     map[int32]*Job[T]
	retained []*Job[T]
	members  map[int]*member
	// parked holds the members with an idle token and no draw, in the order
	// their tokens came back; handed, the draws their senders have not taken.
	parked []*member
	handed map[*member]draw[T]

	hungers atomic.Int64 // hunger passes that moved backlog
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
	// Registry is the membership table: any traffic is a heartbeat, and
	// each tick declares dead those silent for more than HeartbeatMiss
	// intervals of HeartbeatInterval, in-process members excepted.
	Registry          *Registry
	HeartbeatInterval time.Duration
	HeartbeatMiss     int
	// Cache, when non-nil, is the store whose wire layer the members'
	// known-sets count in.
	Cache *cas.Store
	// RetainJobs is how many finished jobs Jobs keeps listing.
	RetainJobs int
}

// ErrClosed ends the jobs still running when their driver closes, and
// refuses jobs started after.
var ErrClosed = errors.New("core: driver closed")

// Link is the driver's end of a member's wire: a *comm.Conn for a fleet
// worker process, the queue of a Local link for an in-process member.
type Link interface {
	Send(comm.Message) error
	Close() error
}

// member is the driver's side of one member. id is the member index the
// engine, the pool and the draw order know it by.
type member struct {
	id       int
	link     Link
	idle     chan struct{} // wakes its sender: its idle token was handed a draw
	stop     chan struct{}
	stopOnce sync.Once
	known    *cas.PeerSet // what it holds of the Delta jobs' blocks
	// sender marks a member whose draws a sender goroutine ships; parked,
	// under the driver's mu, one in the parked queue.
	sender, parked bool

	// attachMu orders the attach and detach frames against task sends, and
	// every known-set note against the detach that resets the set.
	// attached holds the jobs the member has kernel state for.
	attachMu sync.Mutex
	attached map[int32]bool
}

func (m *member) close() {
	m.stopOnce.Do(func() {
		close(m.stop)
		m.link.Close()
	})
}

// closed polls a channel that is only ever closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// draw is a batch the walk drew for a member: vertices ids of job jb.
type draw[T any] struct {
	jb  *Job[T]
	ids []int32
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
	// Meta is the attach frame (comm.KindJobSpec) a member gets before the
	// job's first task.
	Meta   []byte
	Trace  *trace.Recorder // the job's own events, for monitoring
	Closer io.Closer       // closed when the job ends: its checkpoint file
	// Problem and Thread, the thread partition (zero: the runner's), are
	// what an in-process member computes the job with (Runner).
	Problem Problem[T]
	Thread  dag.Size

	faults            *faultState // injected into its in-process runners (RunContext's FaultPlan)
	ctrs              counters    // its in-process runners' thread level
	start             time.Time
	commitMu          sync.Mutex   // one Complete at a time: members answer concurrently
	messages, payload atomic.Int64 // its task and result frames
	done              chan struct{}
	doneOnce          sync.Once
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

func (jb *Job[T]) count(msg comm.Message) {
	jb.messages.Add(1)
	jb.payload.Add(int64(msg.PayloadLen()))
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

// RunStats is the job's ledger (Stats) with what the engine cannot see:
// the sub-tasks of its in-process runners and its task and result frames,
// one of each per dispatched vertex at Batch 1.
func (jb *Job[T]) RunStats() Stats {
	c := &jb.ctrs
	return Stats{Stats: jb.Stats(), SubTasks: c.subTasks.Load(),
		WorkerRestarts: c.workerRestarts.Load(), Messages: jb.messages.Load(), PayloadBytes: jb.payload.Load()}
}

// Runner builds the runner an in-process member computes jb with: jb's
// problem and partitions, the rest of run, and jb's injected faults and
// thread-level counters. It needs nothing of the running job, so a member
// attaches a job that ended while its spec frame was queued.
func (jb *Job[T]) Runner(run Config) (*TaskRunner[T], error) {
	run.ProcPartition = jb.Engine.Graph().Geom.Block
	if jb.Thread.Valid() {
		run.ThreadPartition = jb.Thread
	}
	r, err := NewTaskRunner(jb.Problem, run)
	if err == nil {
		r.faults, r.ctrs = jb.faults, &jb.ctrs
	}
	return r, err
}

// NewJob builds the job of every deployment — RunContext, a fleet, the
// simulator — and alone decides its shape: an unset partition is the
// advisor's for the members live now under Auto, the default otherwise;
// the draw order is policy's; it ships against its members' known-sets
// when cached or drawn by affinity; what jp leaves unset is the pool's,
// timeouts included. Of ec it keeps CacheKey, Reclaim, Trace (nil records
// nothing) and OnProgress. A pattern other than the library's six is
// checked first (dag.Validate), so one with a cycle or a block outside the
// grid fails here and not by timeout or panic; a library pattern is not.
func (d *Driver[T]) NewJob(id int32, p Problem[T], proc dag.Size, policy Policy, jp engine.JobParams, ec engine.Config[T]) (*Job[T], error) {
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
	switch pat := p.Kernel.Pattern(); pat.(type) {
	case dag.Wavefront, dag.RowColumn, dag.Triangular, dag.Dominance, dag.RowOnly, dag.Chain: // held by dag's own tests
	default:
		if err := dag.Validate(pat, dag.MatrixGeometry(p.Size, proc)); err != nil {
			return nil, err
		}
	}
	jb := &Job[T]{ID: id, Params: d.pool.Params(jp), Trace: ec.Trace, Problem: p}
	ec.TaskTimeout, ec.MaxAttempts, ec.Cache = jb.Params.TaskTimeout, jb.Params.MaxAttempts, d.cfg.Cache
	ec.Delta = policy == PolicyAffinity || ec.Cache != nil && ec.CacheKey != ""
	jb.Engine = engine.New(p.Kernel.Pattern(), p.Codec, p.Size, proc, ec)
	jb.Params.Order = d.order(policy, jb.Engine)
	return jb, nil
}

// order is the draw order policy names for job eng: nil, the pool's LIFO
// stack, for PolicyDynamic; for PolicyBlockCyclic the static block-cyclic
// schedule in runs of one column over the members admitted so far; for
// PolicyAffinity, what scores a ready vertex by how many of its dependency
// blocks a member's known-set holds (scored in the draw, under mu, which
// guards the members; v is ready, so its dependencies' keys are recorded).
func (d *Driver[T]) order(policy Policy, eng *engine.Job[T]) sched.Order {
	switch policy {
	case PolicyBlockCyclic:
		admitted, _, _, _, _ := d.reg.MembershipCounts()
		return memberOrder{sched.NewBlockCyclic(eng.Graph(), int(admitted), 1)}
	case PolicyAffinity:
		return sched.NewAffinity(func(w int, v int32) int {
			n := 0
			for _, dep := range eng.Graph().Vertex(v).DataPre {
				if m := d.members[w]; m != nil && m.known.Has(eng.ResultKey(dep)) {
					n++
				}
			}
			return n
		})
	}
	return nil
}

// memberOrder is a static order as the driver draws from it: registry
// member ids start at 1, and the order's workers at 0.
type memberOrder struct{ sched.Order }

func (o memberOrder) Pop(member, n int, dst []int32) []int32 { return o.Order.Pop(member-1, n, dst) }

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
		handed:  make(map[*member]draw[T]),
		done:    make(chan struct{}),
	}
	return d
}

// StartTick starts the control tick goroutine (Fig. 10). Its ticker is
// armed before StartTick returns, so a clock advanced afterwards reaches it.
func (d *Driver[T]) StartTick() {
	ticker := d.clock.NewTicker(d.cfg.Pool.CheckInterval)
	d.spawn(func() { d.tickLoop(ticker) })
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

// Counts returns the hunger passes that moved backlog toward a parked
// member (Tick) and the stale results (for jobs no longer running).
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
	d.mu.Unlock()
	d.progress()
	d.feed(nil)
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

// AddMember admits the member the registry knows as id, reached over link:
// with sender, a sender goroutine of its own ships its draws, and without
// (the simulator's), the step that draws for it does. Once the driver is
// closed it admits nothing and reports false.
func (d *Driver[T]) AddMember(id int, link Link, sender bool) bool {
	m := &member{id: id, link: link, idle: make(chan struct{}, 1), stop: make(chan struct{}),
		known: d.cfg.Cache.NewPeerSet(), attached: make(map[int32]bool), sender: sender}
	d.mu.Lock()
	defer d.mu.Unlock()
	if closed(d.done) {
		return false
	}
	d.members[m.id] = m
	if sender {
		d.spawn(func() { d.senderLoop(m) })
	}
	return true
}

// senderLoop is one worker thread of the master worker pool: it waits on
// its member's own signal, ships the draw it was handed (§V.B step e) and
// walks for what that requeued. It tells the member to end on Close.
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
		d.mu.Lock()
		dr, ok := d.handed[m]
		delete(d.handed, m)
		d.mu.Unlock()
		if ok {
			d.ship(m, dr)
			d.feed(nil)
		}
	}
}

// walk draws, under mu, for the parked members from the front until one
// draws, and takes that one out of the queue (§V.B step d). A refused draw
// ends the walk under a member-blind order — nothing is queued for anyone —
// while under BCW (memberOrder) the member keeps its place.
func (d *Driver[T]) walk() (*member, draw[T]) {
	for i, m := range d.parked {
		if id, ids, ok := d.pool.Draw(m.id); ok {
			copy(d.parked[1:i+1], d.parked[:i]) // the refused ahead of m step back: O(i), 0 when blind
			d.parked = d.parked[1:]
			m.parked = false
			return m, draw[T]{d.jobs[id], ids}
		}
		if d.blind() {
			break
		}
	}
	return nil, draw[T]{}
}

// blind reports, under mu, whether every running job draws in a
// member-blind order: any member may take any vertex it queues.
func (d *Driver[T]) blind() bool {
	for _, jb := range d.jobs {
		if _, static := jb.Params.Order.(memberOrder); static {
			return false
		}
	}
	return true
}

// feed walks the parked queue after a step that queued work or freed quota
// room, first parking free, a member whose idle token came back, at the
// back; one unknown (nil, revoked) or holding its token stays as it is. A
// member with a sender is handed its draw; one without has it shipped
// here, before the next member draws.
func (d *Driver[T]) feed(free *member) {
	d.mu.Lock()
	if _, handed := d.handed[free]; !handed && free != nil && !free.parked && d.members[free.id] == free {
		free.parked = true
		d.parked = append(d.parked, free)
	}
	for {
		m, dr := d.walk()
		if m == nil || !m.sender {
			d.mu.Unlock()
			if m == nil {
				return
			}
			d.ship(m, dr)
			d.mu.Lock()
			continue
		}
		d.handed[m] = dr
		select {
		case m.idle <- struct{}{}:
		default:
		}
	}
}

// ship dispatches the draw m was handed. One that spent nothing — its
// vertices all finished while queued (a result raced a timeout), or its
// job ended — parks m again.
func (d *Driver[T]) ship(m *member, dr draw[T]) {
	if !d.dispatch(m, dr.jb, dr.ids) {
		d.feed(m)
	}
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
	if closed(m.stop) {
		// The member went away while its sender held the draw: hand it back
		// for a live member. revoke closes stop before it takes mu, so a
		// lease granted below is one its revocation sees.
		d.pool.Undraw(jb.ID, ids)
		d.mu.Unlock()
		return true
	}
	grants, spent := d.pool.Lease(jb.ID, m.id, ids, now)
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
		if !m.attached[jb.ID] {
			// The link is ordered, so the spec always precedes the tasks. An
			// in-process member takes the job itself along with it.
			if l, ok := m.link.(toMember); ok {
				l.handed.Store(jb.ID, jb)
			}
			//lint:ignore blocking-under-lock the attach frame and the task must reach the wire without a detach interleaving, which only attachMu serializes; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			if err = m.link.Send(comm.Message{Kind: comm.KindJobSpec, Job: jb.ID, Payload: jb.Meta}); err == nil {
				m.attached[jb.ID] = true
			}
		}
		if err == nil {
			task := comm.TaskMessage(jb.ID, entries)
			jb.count(task) // first: its result may end the job before the send returns
			//lint:ignore blocking-under-lock the task send is serialized against the JobEnd by attachMu; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			err = m.link.Send(task)
		}
	}
	m.attachMu.Unlock()
	if encErr != nil {
		d.End(jb, encErr) // a job that ended meanwhile keeps how it ended
		return false      // nothing went out
	} else if err != nil {
		// The leases just granted are revoked with the member, or expire.
		d.Down(m.id, fmt.Errorf("core: sending %d-task batch to member %d: %w", len(entries), m.id, err))
	}
	return true
}

// Deliver is the receive side (§V.B steps f-h): one message from member
// id, from a socket's reader, an in-process member's worker loop or a
// simulated worker.
// Results of different jobs commit concurrently, of one job one at a time.
func (d *Driver[T]) Deliver(id int, msg comm.Message) {
	if closed(d.done) {
		return
	}
	d.reg.Beat(id) // any traffic proves liveness
	d.mu.Lock()
	m, jb := d.members[id], d.jobs[msg.Job]
	d.mu.Unlock()
	switch msg.Kind {
	case comm.KindIdle:
		d.feed(m)
	case comm.KindHeartbeat:
		if m != nil {
			_ = m.link.Send(comm.Message{Kind: comm.KindHeartbeat})
		}
	case comm.KindLeave:
		if d.reg.MarkLeft(id) {
			d.revoke(id)
			d.feed(nil)
		}
	case comm.KindResult, comm.KindResultBatch:
		if jb != nil {
			jb.count(msg)
		}
		if msg.Kind == comm.KindResult {
			d.applyResult(m, id, jb, msg.Vertex, msg.Attempt, msg.Payload)
		}
		for _, e := range msg.Batch {
			d.applyResult(m, id, jb, e.Vertex, e.Attempt, e.Payload)
		}
		// More marks a partial flush of a still-executing batch: parking
		// the member now would over-commit it. Even with nothing ready the
		// walk is due: a released lease may free quota room.
		if msg.More {
			m = nil
		}
		d.feed(m)
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
		if m.attached[jb.ID] {
			m.known.Note(jb.Engine.ResultKey(v))
		}
		m.attachMu.Unlock()
	}
	d.reg.NoteCompleted(id)
	if finished {
		d.End(jb, nil)
		return
	}
	d.mu.Lock()
	d.pool.Ready(jb.ID, ready)
	d.mu.Unlock()
}

// Down handles member id's failure — a broken link, a failed send, a frame
// no worker sends — which err names: the member is declared dead and its
// leases go back to their jobs (§V). After Close it does nothing.
func (d *Driver[T]) Down(id int, err error) {
	if !closed(d.done) && d.reg.MarkDead(id) {
		d.revoke(id)
		d.feed(nil)
	}
}

// revoke forgets a dead or departed member, closing its link, and has the
// pool requeue its leased vertices and a draw its sender has not taken;
// this counts toward no MaxAttempts. The caller walks for what it requeued.
func (d *Driver[T]) revoke(id int) {
	d.mu.Lock()
	m := d.members[id]
	delete(d.members, id)
	d.parked = slices.DeleteFunc(d.parked, func(p *member) bool { return p == m })
	if dr, handed := d.handed[m]; handed {
		delete(d.handed, m)
		d.pool.Undraw(dr.jb.ID, dr.ids)
	}
	d.mu.Unlock()
	if m != nil {
		m.close() // stop closes before the pool revokes: see dispatch
	}
	d.mu.Lock()
	revoked, requeued := d.pool.Revoke(id)
	d.mu.Unlock()
	d.reg.NoteRevoked(revoked, requeued)
}

// tickLoop is the master fault-tolerance thread (Fig. 10).
func (d *Driver[T]) tickLoop(ticker sched.Ticker) {
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

// Tick is one control tick: the heartbeat sweep; the pool's hunger pass
// for each parked member in queue order, a pass that moves backlog counting
// as a hunger; the pool's tick (deadlines, overtime expiry, straggler flags,
// the tuner); the end of the jobs it gave up on; and a walk.
func (d *Driver[T]) Tick(now time.Time) {
	defer d.progress()
	for _, id := range d.reg.Sweep(now, d.cfg.HeartbeatInterval, d.cfg.HeartbeatMiss) {
		d.revoke(id)
	}
	live := d.reg.Live()
	d.mu.Lock()
	for _, m := range d.parked {
		if d.pool.Hunger(m.id) {
			d.hungers.Add(1)
		}
	}
	ended := d.pool.Tick(now, live, d.hungers.Load())
	over := make([]*Job[T], len(ended))
	for i, end := range ended {
		over[i] = d.jobs[end.ID]
		d.unlist(over[i])
	}
	d.mu.Unlock()
	for i, end := range ended {
		over[i].finish(over[i].fail(end.Err), now)
		d.detach(over[i])
	}
	d.feed(nil)
}

// Close ends the running jobs with ErrClosed and stops the driver: each
// sender sends its member comm.KindEnd, then every link closes.
func (d *Driver[T]) Close() {
	d.mu.Lock()
	var running []*Job[T]
	if !closed(d.done) {
		for _, jb := range d.jobs {
			running = append(running, jb)
		}
		close(d.done)
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
