// Package fleet is the elastic master: one process running N concurrent
// DAG jobs over a single worker pool that members join, leave and die
// under. The job service submits many jobs to it (easyhps-serve -fleet);
// an elastic cluster run (easyhps-launch -elastic) is the same fleet with
// one job.
//
// The fleet is the I/O around two sans-I/O state machines of
// internal/engine. Each submitted job owns its DAG-progress half, one
// engine.Job: graph, parser, block store, register table (attempt
// namespace), overtime queue, lease table, checkpoint log, runtime profile
// and stats ledger. One engine.Pool schedules across them: the running-job
// table, every job's ready stack and fair-share account, the hunger pass,
// revocation across jobs, the control tick and the tuner. What is left
// here is the shared, I/O half of a run — the listener, membership
// registry, member connections with their attach state, heartbeats and
// hunger beacons, encoding, the finish latch and the checkpoint file. Task
// and result frames carry a job id (comm.Message.Job, wire protocol v3),
// and a worker attaches a job's kernel state on first contact via a
// job-spec frame, so one worker holds batches from several jobs at once.
//
// Which job feeds the next ready batch to an idle worker is the pool's
// weighted max-min fair share: the eligible job with the smallest
// normalized service draws, with priority classes and per-job in-flight
// quotas on top. A poisoned job — one whose vertices time out repeatedly —
// fails alone: its retries are capped by its own MaxAttempts and bounded
// by its quota, and the healthy jobs keep draining.
//
// See docs/FLEET.md for the scheduler policy, the job-scoped lease
// lifecycle, and the wire-protocol changes.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/cluster"
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
	// readable from Fleet.Addr).
	Addr string
	// HeartbeatInterval is the worker beacon period (default 250 ms).
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many silent intervals declare a member dead
	// (default 3).
	HeartbeatMiss int
	// TaskTimeout is the default per-vertex overtime bound (default
	// 30 s); jobs may override it per JobRequest.
	TaskTimeout time.Duration
	// CheckInterval is the control-loop tick (default HeartbeatInterval).
	CheckInterval time.Duration
	// MaxAttempts is the default per-vertex overtime cap before a job
	// fails (default 4); jobs may override it.
	MaxAttempts int
	// Batch bounds how many ready vertices one dispatch message may
	// carry (default 1). A batch never mixes jobs.
	Batch int
	// DefaultQuota caps each job's in-flight leased attempts when the
	// JobRequest does not set its own (0 = unlimited).
	DefaultQuota int
	// Speculate enables speculative re-execution per job: when an
	// in-flight vertex runs longer than a high quantile of the job's
	// observed runtimes, a backup attempt is dispatched to an idle member
	// and whichever result arrives first wins; the loser is dropped by
	// attempt stamp.
	Speculate bool
	// SpecQuantile is the runtime-profile quantile an attempt must outlive
	// to become a speculation candidate (default 0.95) and SpecMultiplier
	// scales it into the age threshold (default 2: "twice the p95
	// runtime"). SpecMinSamples is how many completed vertices a job must
	// have observed before speculation arms (default 8) — backing up half
	// the first wave off a cold profile would only add load. SpecFloor is
	// the minimum age threshold (default CheckInterval), keeping sub-tick
	// kernels from speculating on scheduling jitter.
	SpecQuantile   float64
	SpecMultiplier float64
	SpecMinSamples int
	SpecFloor      time.Duration
	// Steal enables feeding hungry workers from the most loaded member's
	// undispatched backlog.
	Steal bool
	// Auto hands the shared-pool knobs to the online tuner: Speculate
	// and Steal are forced on, Batch/SpecQuantile/SpecMultiplier become
	// the tuner's starting point, and every control tick may adjust them
	// from dispatch progress, hunger, the worst per-job profile
	// dispersion and speculation outcomes (internal/tune). Adjustments
	// are traced as EvTune events on the fleet recorder and exported via
	// TuneSnapshot.
	Auto bool
	// Cache, when non-nil, is the cross-job content-addressed result
	// store (internal/cas), shared by every job that submits a CacheKey:
	// computable vertices are probed before dispatch (a hit applies the
	// stored block without drawing a lease), completed blocks are
	// written through alongside the checkpoint, and task payloads switch
	// to the keyed wire format, where a block a member already holds is
	// replaced by a content-key reference.
	Cache *cas.Store
	// Clock is the time source for all deadline machinery; nil means the
	// wall clock, tests inject a sched.FakeClock.
	Clock sched.Clock
	// Trace optionally records fleet-level membership events.
	Trace *trace.Recorder
	// RetainJobs is how many finished jobs stay queryable via Snapshot
	// and TraceEvents (default 64).
	RetainJobs int
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
	if o.RetainJobs < 1 {
		o.RetainJobs = 64
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
	// QueueDepth is the aggregate number of computable vertices queued
	// across running jobs — work the pool has not absorbed yet.
	QueueDepth int
	// Hungers counts hunger beacons received: a high rate means workers
	// drain faster than the fleet feeds them.
	Hungers int64
	// Members is the membership view (states, joins, deaths, ...).
	Members cluster.Snapshot
	// Aggregate rolls every job's Stats up into one ledger.
	Aggregate engine.Stats
}

// Fleet runs many concurrent DAG jobs over one shared elastic worker
// pool. Create with New, submit jobs with Run (one goroutine per job,
// typically the job service's run slots), stop with Close.
type Fleet[T any] struct {
	opts Options

	ln    net.Listener
	reg   *cluster.Registry
	clock sched.Clock

	inbox chan event

	connMu sync.Mutex
	conns  map[int]*memberConn

	// mu guards the pool — the running jobs in submission order, every
	// job's ready stack and fair-share account — the fleet's own half of
	// each running job by wire id, the retained finished ones, and the
	// closed flag; cond (on mu) wakes senders when work, quota room or
	// shutdown arrives.
	mu      sync.Mutex
	cond    *sync.Cond
	pool    *engine.Pool[T]
	jobs    map[int32]*job[T]
	doneLog []*job[T]
	nextID  int32
	closed  bool

	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup

	hungers atomic.Int64
	stale   atomic.Int64 // results for unknown/finished jobs

	// progressMu/progressC/progressGen let observers (tests) wait for
	// scheduling progress without polling: noteProgress bumps the
	// generation and broadcasts after dispatch grants, applied results,
	// control ticks, and job retirement. Leaf lock — never held while
	// taking mu, connMu, or attachMu.
	progressMu  sync.Mutex
	progressC   *sync.Cond
	progressGen uint64
}

// noteProgress records one unit of scheduling progress for waitProgress
// observers. Cheap enough to call on every dispatch/result/tick.
func (f *Fleet[T]) noteProgress() {
	f.progressMu.Lock()
	f.progressGen++
	f.progressC.Broadcast()
	f.progressMu.Unlock()
}

// progressGeneration snapshots the progress counter; waitProgress blocks
// until it moves past the snapshot.
func (f *Fleet[T]) progressGeneration() uint64 {
	f.progressMu.Lock()
	defer f.progressMu.Unlock()
	return f.progressGen
}

// waitProgress blocks until the progress generation exceeds gen or abort
// is signalled (returns false). Evaluate the condition of interest
// OUTSIDE this call, between generation snapshots, so no wakeup is lost:
// snapshot, check, wait, re-check.
func (f *Fleet[T]) waitProgress(gen uint64, abort <-chan struct{}) bool {
	f.progressMu.Lock()
	defer f.progressMu.Unlock()
	for f.progressGen == gen {
		select {
		case <-abort:
			return false
		default:
		}
		f.progressC.Wait()
	}
	return true
}

// event is one unit of the fleet's serialized input: a message from a
// member, or a connection-failure notice from its pump.
type event struct {
	member int
	msg    comm.Message
	down   bool
}

// memberConn is the fleet-side endpoint of one member.
type memberConn struct {
	id       int
	cn       *comm.Conn
	idle     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once

	// attached tracks which jobs this member holds kernel state for
	// (job-spec sent, job-end not yet). known, present when the fleet
	// has a result store, is the member's content-keyed known-set for
	// the keyed wire format. Both are guarded by attachMu: every Note
	// and Knows must be ordered against the attach/detach frames, and in
	// particular against the Reset that mirrors the worker dropping its
	// block cache when its last job detaches.
	attachMu sync.Mutex
	attached map[int32]bool
	known    *cas.PeerSet
}

func (mc *memberConn) close() {
	mc.stopOnce.Do(func() {
		close(mc.stop)
		mc.cn.Close()
	})
}

func (mc *memberConn) stopped() bool {
	select {
	case <-mc.stop:
		return true
	default:
		return false
	}
}

// New builds a fleet and starts listening on opts.Addr. Workers may join
// immediately; jobs arrive via Run.
func New[T any](opts Options) (*Fleet[T], error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	f := &Fleet[T]{
		opts:  opts,
		ln:    ln,
		reg:   cluster.NewRegistry(opts.Trace, opts.Clock),
		clock: opts.Clock,
		inbox: make(chan event, 256),
		conns: make(map[int]*memberConn),
		pool: engine.NewPool[T](engine.PoolConfig{
			Batch:          opts.Batch,
			TaskTimeout:    opts.TaskTimeout,
			MaxAttempts:    opts.MaxAttempts,
			DefaultQuota:   opts.DefaultQuota,
			Speculate:      opts.Speculate,
			SpecQuantile:   opts.SpecQuantile,
			SpecMultiplier: opts.SpecMultiplier,
			SpecMinSamples: opts.SpecMinSamples,
			SpecFloor:      opts.SpecFloor,
			Steal:          opts.Steal,
			Auto:           opts.Auto,
			CheckInterval:  opts.CheckInterval,
			Trace:          opts.Trace,
		}),
		jobs: make(map[int32]*job[T]),
		done: make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	f.progressC = sync.NewCond(&f.progressMu)
	f.wg.Add(3)
	go func() { defer f.wg.Done(); f.acceptLoop() }()
	go func() { defer f.wg.Done(); f.recvLoop() }()
	go func() { defer f.wg.Done(); f.controlLoop() }()
	return f, nil
}

// Addr returns the address the fleet listens on.
func (f *Fleet[T]) Addr() string { return f.ln.Addr().String() }

// Registry exposes the membership table.
func (f *Fleet[T]) Registry() *cluster.Registry { return f.reg }

// Close shuts the fleet down: running jobs fail with ErrFleetClosed,
// workers are dismissed, and the loops drain.
func (f *Fleet[T]) Close() {
	f.doneOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		running := make([]*job[T], 0, len(f.jobs))
		for _, jb := range f.jobs {
			running = append(running, jb)
		}
		f.cond.Broadcast()
		f.mu.Unlock()
		now := f.clock.Now()
		for _, jb := range running {
			jb.finish(ErrFleetClosed, now)
		}
		close(f.done)
		f.ln.Close()
		f.connMu.Lock()
		conns := make([]*memberConn, 0, len(f.conns))
		for _, mc := range f.conns {
			conns = append(conns, mc)
		}
		f.connMu.Unlock()
		for _, mc := range conns {
			_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
			mc.close()
		}
	})
	f.wg.Wait()
}

// ErrFleetClosed fails jobs still running when the fleet shuts down.
var ErrFleetClosed = errors.New("fleet: closed")

// Run submits one job and blocks until it completes, fails, or ctx is
// cancelled. Jobs run concurrently: call Run from one goroutine per job.
func (f *Fleet[T]) Run(ctx context.Context, p core.Problem[T], req JobRequest) (*Result[T], error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFleetClosed
	}
	f.nextID++
	id := f.nextID
	f.mu.Unlock()

	if f.opts.Auto && !req.Proc.Valid() {
		// Partition advisor: pick the block size from the kernel's cost
		// model and the membership at submission (one worker when none has
		// joined yet). Workers follow the job-spec frame's Proc, so the
		// choice cannot diverge.
		cm, _ := p.Kernel.(tune.CostModel)
		req.Proc = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, f.reg.Live(), cm)
	}
	jb, err := f.newJob(id, p, req)
	if err != nil {
		return nil, err
	}
	frontier, err := jb.restore()
	if err != nil {
		jb.finish(err, f.clock.Now()) // closes the checkpoint file
		return nil, err
	}
	if jb.eng.Finished() {
		// Every vertex came out of the checkpoint or the cross-job cache:
		// the job never touches the pool at all.
		jb.finish(nil, f.clock.Now())
		return &Result[T]{Store: jb.eng.Store(), Stats: jb.stats()}, nil
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		jb.finish(ErrFleetClosed, f.clock.Now()) // closes the checkpoint file
		return nil, ErrFleetClosed
	}
	f.jobs[id] = jb
	f.pool.Add(id, jb.eng, jb.params, frontier, jb.start)
	f.cond.Broadcast()
	f.mu.Unlock()
	f.noteProgress() // the job is admitted and observable

	select {
	case <-ctx.Done():
		jb.finish(ctx.Err(), f.clock.Now())
		f.retire(jb)
	case <-jb.done:
	}
	if err := jb.finalErr(); err != nil {
		return nil, err
	}
	return &Result[T]{Store: jb.eng.Store(), Stats: jb.stats()}, nil
}

// retire removes a finished job from the running table (idempotent),
// drops its queued work, notifies attached workers to free the job's
// kernel state, and keeps the job queryable in the done log.
func (f *Fleet[T]) retire(jb *job[T]) {
	defer f.noteProgress()
	f.mu.Lock()
	running := f.unlist(jb)
	f.mu.Unlock()
	if running {
		f.detach(jb)
	}
}

// unlist, under mu, moves jb from the running table and the pool to the
// done log and reports whether it was still running.
func (f *Fleet[T]) unlist(jb *job[T]) bool {
	if _, ok := f.jobs[jb.id]; !ok {
		return false
	}
	delete(f.jobs, jb.id)
	f.pool.Remove(jb.id)
	f.doneLog = append(f.doneLog, jb)
	if over := len(f.doneLog) - f.opts.RetainJobs; over > 0 {
		f.doneLog = append([]*job[T](nil), f.doneLog[over:]...)
	}
	f.cond.Broadcast()
	return true
}

// detach tells every worker that holds jb's kernel state to free it.
func (f *Fleet[T]) detach(jb *job[T]) {
	f.connMu.Lock()
	conns := make([]*memberConn, 0, len(f.conns))
	for _, mc := range f.conns {
		conns = append(conns, mc)
	}
	f.connMu.Unlock()
	for _, mc := range conns {
		// attachMu is held across both the map update and the JobEnd send
		// so no sender can interleave a task (or a fresh JobSpec) with the
		// detach: dispatch re-checks jb.finished() under the same lock and
		// drops its batch instead of sending after JobEnd.
		mc.attachMu.Lock()
		if mc.attached[jb.id] {
			delete(mc.attached, jb.id)
			//lint:ignore blocking-under-lock the detach frame must be ordered against this member's task sends, which only attachMu serializes; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			_ = mc.cn.Send(comm.Message{Kind: comm.KindJobEnd, Job: jb.id})
			if len(mc.attached) == 0 && mc.known != nil {
				// The worker drops its content-addressed block cache when
				// its last job detaches; this JobEnd is that frame, so
				// the master's view of the member's holdings resets on
				// the same ordered boundary.
				mc.known.Reset()
			}
		}
		mc.attachMu.Unlock()
	}
}

// jobByID returns the running or retained job with the given id.
func (f *Fleet[T]) jobByID(id int32) *job[T] {
	f.mu.Lock()
	defer f.mu.Unlock()
	if jb, ok := f.jobs[id]; ok {
		return jb
	}
	for _, jb := range f.doneLog {
		if jb.id == id {
			return jb
		}
	}
	return nil
}

// acceptLoop admits workers for the fleet's whole lifetime.
func (f *Fleet[T]) acceptLoop() {
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed in Close
		}
		go f.admit(c)
	}
}

// admit performs the join handshake on one fresh connection. Fleet
// workers carry no single-job digest — per-job specs are verified via the
// attach frames instead.
func (f *Fleet[T]) admit(c net.Conn) {
	cn, id, err := comm.AcceptHello(c, "", func(hello comm.Hello) (int, string) {
		if !hello.Fleet {
			return 0, "this master runs a fleet; start a worker of the same build with -fleet (easyhps-serve) or -elastic (easyhps-launch)"
		}
		select {
		case <-f.done:
			return 0, "fleet shut down"
		default:
		}
		return f.reg.Admit(hello.Name, c.RemoteAddr().String()).ID, ""
	})
	if err != nil {
		if id != 0 {
			f.reg.MarkDead(id)
		}
		return
	}
	cn.SetReadIdle(time.Duration(f.opts.HeartbeatMiss+1) * f.opts.HeartbeatInterval)
	cn.SetWriteTimeout(time.Duration(f.opts.HeartbeatMiss+1) * f.opts.HeartbeatInterval)
	mc := &memberConn{
		id:       id,
		cn:       cn,
		idle:     make(chan struct{}, 4),
		stop:     make(chan struct{}),
		attached: make(map[int32]bool),
	}
	if f.opts.Cache != nil {
		mc.known = f.opts.Cache.NewPeerSet()
	}
	f.connMu.Lock()
	f.conns[id] = mc
	f.connMu.Unlock()
	go f.pump(mc)
	go f.senderLoop(mc)
}

// pump reads one member's messages into the fleet inbox; a connection
// error becomes a down event.
func (f *Fleet[T]) pump(mc *memberConn) {
	for {
		msg, err := mc.cn.Recv()
		if err != nil {
			select {
			case f.inbox <- event{member: mc.id, down: true}:
			case <-f.done:
			}
			return
		}
		select {
		case f.inbox <- event{member: mc.id, msg: msg}:
		case <-f.done:
			return
		}
	}
}

// senderLoop feeds one member whenever it is idle: each idle token buys
// one batch, and the pool decides which job the batch comes from.
func (f *Fleet[T]) senderLoop(mc *memberConn) {
	for {
		select {
		case <-mc.idle:
		case <-mc.stop:
			return
		case <-f.done:
			_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
			return
		}
		for {
			jb, ids, ok := f.nextBatch(mc)
			if !ok {
				if f.fleetClosed() {
					_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
				}
				return
			}
			if f.dispatch(mc, jb, ids) {
				break
			}
			// Every drawn vertex was already finished or superseded; take
			// the next batch without consuming another idle token.
		}
	}
}

func (f *Fleet[T]) fleetClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// nextBatch blocks until the pool can hand member mc a batch from some
// job, the fleet closes, or the member stops. It returns the chosen job
// and the drawn vertices (LIFO off the job's ready stack, never mixing
// jobs), charged to the job's fair-share account.
func (f *Fleet[T]) nextBatch(mc *memberConn) (*job[T], []int32, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed || mc.stopped() {
			return nil, nil, false
		}
		if id, ids, ok := f.pool.Draw(mc.id); ok {
			return f.jobs[id], ids, true
		}
		f.cond.Wait()
	}
}

// dispatch leases the drawn vertices of job jb to member mc and ships
// them in one job-tagged message, attaching the job's spec first if this
// member has never seen it. Returns false when every vertex turned out to
// be already finished.
func (f *Fleet[T]) dispatch(mc *memberConn, jb *job[T], ids []int32) bool {
	defer f.noteProgress()
	if jb.finished() {
		return false // the draw leaves the pool with the job
	}
	now := f.clock.Now()
	f.mu.Lock()
	if mc.stopped() {
		// The member died while this sender waited for work; hand the
		// vertices back for a live member. revoke closes mc.stop before it
		// takes mu, so a lease granted below is one its revocation sees.
		f.pool.Undraw(jb.id, ids)
		f.cond.Broadcast()
		f.mu.Unlock()
		return true
	}
	grants, spent := f.pool.Lease(jb.id, mc.id, ids, now)
	// The draw no longer counts toward the job's quota beyond what was
	// leased, and a held vertex is back on the stack: wake blocked senders.
	f.cond.Broadcast()
	f.mu.Unlock()
	// Leases and dispatch counters are settled; publish before the send
	// section, which can block under attachMu, so observers see the
	// grants while the wire write is still in flight.
	f.noteProgress()
	if len(grants) == 0 {
		return spent
	}
	// Attach and send under attachMu, serialized against retire's detach:
	// a job observed finished here is being (or has been) detached from
	// workers, so sending now could put a task frame after the JobEnd —
	// the worker would see a task for an unattached job — or re-send the
	// spec after JobEnd and leak the job's kernel state on the worker.
	// Drop the batch instead and unwind the leases granted above.
	mc.attachMu.Lock()
	if jb.finished() {
		mc.attachMu.Unlock()
		for _, g := range grants {
			jb.eng.Unlease(g.Vertex, g.Attempt)
		}
		return false
	}
	// A cached job ships in the keyed wire format: blocks the member
	// provably holds become references, the rest ship in full and whole
	// ones are noted as held — decided under attachMu, ordered against the
	// detach that clears the member's set.
	keyed := jb.eng.Cached() && mc.known != nil
	var known engine.Known
	if keyed {
		known = memberKnown{mc.known}
	}
	entries := make([]comm.TaskEntry, 0, len(grants))
	var err, encErr error
	bytes := 0
	for _, g := range grants {
		payload, e := jb.eng.TaskPayload(g.Vertex, known, keyed)
		if e != nil {
			encErr = fmt.Errorf("fleet: encoding data region of vertex %d: %w", g.Vertex, e)
			break
		}
		entries = append(entries, comm.TaskEntry{Vertex: g.Vertex, Attempt: g.Attempt, Payload: payload})
		bytes += len(payload)
	}
	if encErr == nil {
		jb.eng.Shipped(mc.id, len(entries), bytes)
		if !mc.attached[jb.id] {
			// The connection is ordered, so the spec always precedes the
			// job's tasks.
			//lint:ignore blocking-under-lock the attach frame and the task must reach the wire without a detach interleaving, which only attachMu serializes; the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			if err = mc.cn.Send(comm.Message{Kind: comm.KindJobSpec, Job: jb.id, Payload: jb.meta}); err == nil {
				mc.attached[jb.id] = true
			}
		}
		if err == nil {
			//lint:ignore blocking-under-lock the task send is serialized against retire's JobEnd by attachMu (PR 6 review invariant); the write is bounded by the connection's write timeout, and attachMu is a leaf per member
			err = mc.cn.Send(comm.TaskMessage(jb.id, entries))
		}
	}
	mc.attachMu.Unlock()
	if encErr != nil {
		jb.finish(encErr, now)
		f.retire(jb)
		return true
	}
	if err != nil {
		// The pump (or heartbeat sweep) will revoke this member's
		// leases, including the ones just granted; nothing to unwind.
		f.memberFailed(mc)
	}
	return true
}

// memberKnown is a member's content-keyed known-set as the engine asks it.
type memberKnown struct{ *cas.PeerSet }

func (k memberKnown) Holds(_ int32, key cas.Key) bool { return k.Knows(key) }
func (k memberKnown) Note(_ int32, key cas.Key)       { k.PeerSet.Note(key) }

// memberFailed reports a send failure on mc's connection into the inbox.
func (f *Fleet[T]) memberFailed(mc *memberConn) {
	select {
	case f.inbox <- event{member: mc.id, down: true}:
	case <-f.done:
	}
}

// recvLoop serializes membership and result handling for the fleet's
// lifetime.
func (f *Fleet[T]) recvLoop() {
	for {
		select {
		case <-f.done:
			return
		case ev := <-f.inbox:
			if ev.down {
				f.memberDown(ev.member)
				continue
			}
			f.reg.Beat(ev.member) // any traffic proves liveness
			switch ev.msg.Kind {
			case comm.KindIdle:
				f.signalIdle(ev.member)
			case comm.KindHeartbeat:
				f.echoHeartbeat(ev.member)
			case comm.KindLeave:
				f.memberLeave(ev.member)
			case comm.KindHunger:
				f.hungers.Add(1)
				f.feedHungry(ev.member)
			case comm.KindResult:
				f.applyResult(ev.member, ev.msg.Job, ev.msg.Vertex, ev.msg.Attempt, ev.msg.Payload)
				if !ev.msg.More {
					f.signalIdle(ev.member)
				}
			case comm.KindResultBatch:
				for _, e := range ev.msg.Batch {
					f.applyResult(ev.member, ev.msg.Job, e.Vertex, e.Attempt, e.Payload)
				}
				if !ev.msg.More {
					f.signalIdle(ev.member)
				}
			default:
				// A kind the fleet never expects from a worker is
				// protocol corruption or version skew; retire the member
				// so its leases reassign, rather than dropping frames
				// silently.
				f.memberDown(ev.member)
			}
		}
	}
}

func (f *Fleet[T]) signalIdle(member int) {
	f.connMu.Lock()
	mc := f.conns[member]
	f.connMu.Unlock()
	if mc == nil {
		return
	}
	select {
	case mc.idle <- struct{}{}:
	default:
	}
}

func (f *Fleet[T]) echoHeartbeat(member int) {
	f.connMu.Lock()
	mc := f.conns[member]
	f.connMu.Unlock()
	if mc != nil {
		_ = mc.cn.Send(comm.Message{Kind: comm.KindHeartbeat})
	}
}

// feedHungry answers a worker's hunger beacon: the pool steals the newer
// half of the deepest backlog toward it (engine.Pool.Hunger), onto the
// victim job's ready stack, where the hungry member's blocked sender picks
// it up under the same fair share.
func (f *Fleet[T]) feedHungry(member int) {
	f.mu.Lock()
	if f.pool.Hunger(member) {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// applyResult commits one computed vertex to its job. Results for
// unknown or finished jobs (a worker answering after the job retired)
// are dropped.
func (f *Fleet[T]) applyResult(member int, jobID, v, attempt int32, payload []byte) {
	defer f.noteProgress()
	f.mu.Lock()
	jb := f.jobs[jobID]
	f.mu.Unlock()
	if jb == nil {
		f.stale.Add(1)
		return
	}
	now := f.clock.Now()
	ready, accepted, err := jb.eng.Complete(member, v, attempt, payload, now)
	if err != nil {
		jb.finish(jb.fail(err), now)
		f.retire(jb)
		return
	}
	if !accepted {
		return
	}
	if jb.eng.Cached() {
		// The member computed this block, so it holds the output: note the
		// content key so a later dispatch can ship a reference instead.
		// Only while the job is still attached — a detach clears the set,
		// and a note landing after the clear would claim a holding the
		// worker dropped with its runner state.
		f.connMu.Lock()
		mc := f.conns[member]
		f.connMu.Unlock()
		if mc != nil {
			mc.attachMu.Lock()
			if mc.known != nil && mc.attached[jobID] {
				mc.known.Note(jb.eng.ResultKey(v))
			}
			mc.attachMu.Unlock()
		}
	}
	f.reg.NoteCompleted(member)
	if jb.eng.Finished() {
		jb.finish(nil, now)
		f.retire(jb)
		return
	}
	f.mu.Lock()
	f.pool.Ready(jobID, ready)
	// Even with nothing new: the lease just released may have opened quota
	// room for queued work.
	f.cond.Broadcast()
	f.mu.Unlock()
}

// memberDown declares a member dead and reassigns its leases across all
// jobs. It is idempotent: the pump, a failed send and the heartbeat sweep
// may all report the same member.
func (f *Fleet[T]) memberDown(member int) {
	if !f.reg.MarkDead(member) {
		return
	}
	f.revoke(member)
}

func (f *Fleet[T]) memberLeave(member int) {
	if !f.reg.MarkLeft(member) {
		return
	}
	f.revoke(member)
}

// revoke tears down a member's connection and has the pool put its leased
// vertices back, each on the ready stack of the job it belongs to. Death
// revocations do not count toward any job's MaxAttempts.
func (f *Fleet[T]) revoke(member int) {
	f.connMu.Lock()
	mc := f.conns[member]
	delete(f.conns, member)
	f.connMu.Unlock()
	if mc != nil {
		mc.close()
	}
	f.mu.Lock()
	revoked, requeued := f.pool.Revoke(member)
	// Wakes the member's own sender, blocked in nextBatch, too.
	f.cond.Broadcast()
	f.mu.Unlock()
	f.reg.NoteRevoked(revoked, requeued)
}

// controlLoop is the fleet's fault-tolerance thread.
func (f *Fleet[T]) controlLoop() {
	ticker := f.clock.NewTicker(f.opts.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.done:
			return
		case now := <-ticker.C():
			f.tick(now)
		}
	}
}

// tick is one control tick: the heartbeat sweep at the membership level,
// then the pool's — per job the deadline, overtime expiry and straggler
// flagging, then the tuner — and the end of every job that ran out of
// time or attempts. Requeues and failures stay inside the job's
// lease/attempt namespace.
func (f *Fleet[T]) tick(now time.Time) {
	defer f.noteProgress()
	for _, id := range f.reg.Sweep(now, f.opts.HeartbeatInterval, f.opts.HeartbeatMiss) {
		f.revoke(id)
	}
	live := f.reg.Live()
	f.mu.Lock()
	ended := f.pool.Tick(now, live, f.hungers.Load())
	over := make([]*job[T], len(ended))
	for i, end := range ended {
		over[i] = f.jobs[end.ID]
		f.unlist(over[i])
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	for i, end := range ended {
		over[i].finish(fmt.Errorf("fleet: %w", end.Err), now)
		f.detach(over[i])
	}
}

// TuneSnapshot reports the self-tuner's current recommendations — what
// the /metrics exposition exports as easyhps_tune_* gauges. The zero
// snapshot (ok=false) means the fleet runs with static knobs.
func (f *Fleet[T]) TuneSnapshot() (tune.Snapshot, bool) {
	tuner := f.pool.Tuner()
	if tuner == nil {
		return tune.Snapshot{}, false
	}
	return tuner.Snapshot(), true
}

// TraceEvents returns the recorded scheduling events of the named job
// (running or retained), or nil when unknown.
func (f *Fleet[T]) TraceEvents(name string) []trace.Event {
	f.mu.Lock()
	var found *job[T]
	for _, jb := range f.jobs {
		if jb.req.Name == name && (found == nil || jb.id > found.id) {
			found = jb // latest submitted wins
		}
	}
	if found == nil {
		for _, jb := range f.doneLog {
			if jb.req.Name == name {
				found = jb // latest retained wins
			}
		}
	}
	f.mu.Unlock()
	if found == nil {
		return nil
	}
	return found.tr.Events()
}

// Snapshot assembles the monitoring view: per-job progress and deficit,
// job-state counts, aggregate queue depth and hunger count, membership,
// and the race-free roll-up of every job's Stats.
func (f *Fleet[T]) Snapshot() Snapshot {
	f.mu.Lock()
	type row struct {
		jb *job[T]
		engine.Account
	}
	rows := make([]row, 0, len(f.jobs)+len(f.doneLog))
	queueDepth := 0
	maxServed := 0.0
	for _, a := range f.pool.Accounts() {
		rows = append(rows, row{f.jobs[a.ID], a})
		queueDepth += a.Ready
		maxServed = max(maxServed, a.Served)
	}
	for _, jb := range f.doneLog {
		rows = append(rows, row{jb: jb})
	}
	f.mu.Unlock()

	s := Snapshot{
		States:     map[string]int{"running": 0, "done": 0, "failed": 0},
		QueueDepth: queueDepth,
		Hungers:    f.hungers.Load(),
		Members:    f.reg.Metrics(),
	}
	for _, r := range rows {
		jb := r.jb
		st := JobStatus{
			ID:       jb.id,
			Name:     jb.req.Name,
			Done:     jb.eng.Graph().N - jb.eng.Remaining(),
			Total:    jb.eng.Graph().N,
			Ready:    r.Ready,
			Weight:   jb.params.Weight,
			Priority: jb.params.Priority,
			Stats:    jb.stats(),
		}
		// The job's own latch decides, not the table it was found in: a
		// job whose Run has returned may still be a step from retirement.
		switch {
		case !jb.finished():
			st.State = "running"
			st.Inflight = r.Inflight
			if r.ID == jb.id { // not a job the control tick is just ending
				st.Deficit = maxServed - r.Served
			}
		case jb.finalErr() != nil:
			st.State = "failed"
		default:
			st.State = "done"
		}
		s.States[st.State]++
		s.Aggregate.Add(st.Stats)
		s.Jobs = append(s.Jobs, st)
	}
	joins, leaves, deaths, revoked, reassigned := f.reg.MembershipCounts()
	s.Aggregate.Joins = joins
	s.Aggregate.Leaves = leaves
	s.Aggregate.Deaths = deaths
	s.Aggregate.LeasesRevoked = revoked
	s.Aggregate.Reassigned = reassigned
	return s
}
