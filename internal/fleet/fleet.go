// Package fleet is the elastic master: one process running N concurrent
// DAG jobs over a single worker pool that members join, leave and die
// under. The job service submits many jobs to it (easyhps-serve -fleet);
// an elastic cluster run (easyhps-launch -elastic) is the same fleet with
// one job.
//
// The fleet owns the shared half of a run — the listener, membership
// registry, member connections, heartbeats and hunger beacons — while
// each submitted job owns the DAG-progress half, one internal/engine.Job:
// its graph, parser, block store, register table (attempt namespace),
// overtime queue, lease table, checkpoint log, runtime profile and stats
// ledger. Task and result
// frames carry a job id (comm.Message.Job, wire protocol v3), and a
// worker attaches a job's kernel state on first contact via a job-spec
// frame, so one worker holds batches from several jobs at once.
//
// Which job feeds the next ready batch to an idle worker is decided by a
// pluggable Policy; the default FairShare dispatches to the eligible job
// with the largest outstanding-vertex deficit (weighted max-min
// fairness), with priority classes and per-job in-flight quotas on top.
// A poisoned job — one whose vertices time out repeatedly — fails alone:
// its retries are capped by its own MaxAttempts and bounded by its quota,
// and the healthy jobs keep draining.
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
	"repro/internal/matrix"
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
	// Policy picks the job that feeds each idle worker (default
	// FairShare).
	Policy Policy
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

func (o Options) withDefaults() Options {
	if o.Auto {
		// Auto means "mitigate stragglers for me": both mitigation
		// mechanisms arm, and the tuner owns their thresholds.
		o.Speculate = true
		o.Steal = true
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatMiss < 1 {
		o.HeartbeatMiss = 3
	}
	if o.TaskTimeout <= 0 {
		o.TaskTimeout = 30 * time.Second
	}
	if o.CheckInterval <= 0 {
		o.CheckInterval = o.HeartbeatInterval
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 4
	}
	if o.Batch < 1 {
		o.Batch = 1
	}
	if o.Policy == nil {
		o.Policy = FairShare{}
	}
	if o.SpecQuantile <= 0 || o.SpecQuantile > 1 {
		o.SpecQuantile = 0.95
	}
	if o.SpecMultiplier <= 1 {
		o.SpecMultiplier = 2
	}
	if o.SpecMinSamples < 1 {
		o.SpecMinSamples = 8
	}
	if o.SpecFloor <= 0 {
		o.SpecFloor = o.CheckInterval
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
	Aggregate cluster.Stats
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

	// mu guards the job table, iteration order, every job's ready stack
	// and served tally, and the closed flag; cond (on mu) wakes senders
	// when work or shutdown arrives.
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[int32]*job[T]
	order   []int32 // running jobs, submission order
	doneLog []*job[T]
	nextID  int32
	closed  bool

	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup

	hungers atomic.Int64
	stale   atomic.Int64 // results for unknown/finished jobs

	// tuner is the self-tuning controller, non-nil iff Options.Auto.
	// retired (guarded by mu) folds the counters of retired jobs into
	// the tuner's cumulative sample so it stays monotone after jobs
	// leave the running table.
	tuner   *tune.Controller
	retired tune.Sample

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
		jobs:  make(map[int32]*job[T]),
		done:  make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	f.progressC = sync.NewCond(&f.progressMu)
	if opts.Auto {
		f.tuner = tune.New(tune.DefaultLimits(), opts.Batch,
			opts.SpecQuantile, opts.SpecMultiplier, opts.SpecMinSamples)
	}
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
		running := make([]*job[T], 0, len(f.order))
		for _, id := range f.order {
			running = append(running, f.jobs[id])
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
	req = req.withDefaults(f.opts)
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
		// model and the membership at submission. Workers follow the
		// job-spec frame's Proc, so the choice cannot diverge.
		cm, _ := p.Kernel.(tune.CostModel)
		workers := f.reg.Live()
		if workers < 1 {
			workers = 1
		}
		req.Proc = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, workers, cm)
	}
	jb, err := newJob(id, p, req, f.opts.Cache, f.clock)
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
	f.order = append(f.order, id)
	jb.ready = append(jb.ready, frontier...)
	jb.tr.Ready(len(jb.ready))
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
	if _, ok := f.jobs[jb.id]; !ok {
		f.mu.Unlock()
		return
	}
	delete(f.jobs, jb.id)
	for i, id := range f.order {
		if id == jb.id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	jb.ready = nil
	// Fold the job's counters into the retired baseline so the tuner's
	// cumulative sample stays monotone after the job leaves the table.
	done := jb.eng.Sample()
	done.ProfileSamples = 0
	f.retired.Fold(done)
	f.doneLog = append(f.doneLog, jb)
	if over := len(f.doneLog) - f.opts.RetainJobs; over > 0 {
		f.doneLog = append([]*job[T](nil), f.doneLog[over:]...)
	}
	f.cond.Broadcast()
	f.mu.Unlock()

	// Detach the job from every worker that holds its state.
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
	cn := comm.NewConn(c, 0)
	hello, err := cn.RecvHello(10 * time.Second)
	if err != nil {
		cn.Close()
		return
	}
	if reason := comm.CheckHello(hello, ""); reason != "" {
		cn.Reject(reason)
		return
	}
	if !hello.Fleet {
		cn.Reject("this master runs a fleet; start a worker of the same build with -fleet (easyhps-serve) or -elastic (easyhps-launch)")
		return
	}
	select {
	case <-f.done:
		cn.Reject("fleet shut down")
		return
	default:
	}
	member := f.reg.Admit(hello.Name, c.RemoteAddr().String())
	if err := cn.SendWelcome(comm.Welcome{Version: comm.ProtocolVersion, Member: member.ID}); err != nil {
		f.reg.MarkDead(member.ID)
		cn.Close()
		return
	}
	cn.SetReadIdle(time.Duration(f.opts.HeartbeatMiss+1) * f.opts.HeartbeatInterval)
	cn.SetWriteTimeout(time.Duration(f.opts.HeartbeatMiss+1) * f.opts.HeartbeatInterval)
	mc := &memberConn{
		id:       member.ID,
		cn:       cn,
		idle:     make(chan struct{}, 4),
		stop:     make(chan struct{}),
		attached: make(map[int32]bool),
	}
	if f.opts.Cache != nil {
		mc.known = f.opts.Cache.NewPeerSet()
	}
	f.connMu.Lock()
	f.conns[member.ID] = mc
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
// one batch, and the policy decides which job the batch comes from.
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
			if mc.stopped() {
				// The member died while this sender waited for work;
				// hand the vertices back for a live member.
				f.requeue(jb, ids...)
				f.undraw(jb, len(ids))
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

// nextBatch blocks until the policy can hand member mc a batch from some
// job, the fleet closes, or the member stops. It returns the chosen job
// and the drawn vertices (LIFO off the job's ready stack, never mixing
// jobs), charging the job's fair-share account for the draw.
func (f *Fleet[T]) nextBatch(mc *memberConn) (*job[T], []int32, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed || mc.stopped() {
			return nil, nil, false
		}
		views := make([]JobView, len(f.order))
		jobs := make([]*job[T], len(f.order))
		for i, id := range f.order {
			jb := f.jobs[id]
			jobs[i] = jb
			views[i] = JobView{
				ID:       id,
				Weight:   jb.req.Weight,
				Priority: jb.req.Priority,
				Ready:    len(jb.ready),
				// Vertices drawn by a concurrent sender but not yet leased
				// count against the quota too, so racing senders cannot
				// overshoot a job's in-flight bound between draw and grant.
				Inflight: jb.eng.Inflight() + jb.drawn,
				Quota:    jb.req.Quota,
				Served:   jb.served,
			}
		}
		if i := f.opts.Policy.Pick(views); i >= 0 {
			jb := jobs[i]
			n := f.batchCap()
			if q := views[i].Quota; q > 0 {
				if room := q - views[i].Inflight; room < n {
					n = room
				}
			}
			if n < 1 {
				n = 1
			}
			if n > len(jb.ready) {
				n = len(jb.ready)
			}
			ids := make([]int32, n)
			copy(ids, jb.ready[len(jb.ready)-n:])
			jb.ready = jb.ready[:len(jb.ready)-n]
			jb.served += float64(n) / jb.req.Weight
			jb.drawn += n
			return jb, ids, true
		}
		f.cond.Wait()
	}
}

// undraw drops n from jb's drawn-but-not-yet-leased count (see
// nextBatch): called once the batch's vertices are leased, requeued or
// dead, so the quota view stops double-counting them.
func (f *Fleet[T]) undraw(jb *job[T], n int) {
	f.mu.Lock()
	jb.drawn -= n
	// Dropping the drawn charge can open quota room for senders blocked
	// on an at-quota job; wake them to re-evaluate.
	f.cond.Broadcast()
	f.mu.Unlock()
}

// requeue puts vertices back on jb's ready stack and wakes senders.
func (f *Fleet[T]) requeue(jb *job[T], ids ...int32) {
	if len(ids) == 0 {
		return
	}
	f.mu.Lock()
	if _, running := f.jobs[jb.id]; running {
		jb.ready = append(jb.ready, ids...)
		// Requeues were already charged on first dispatch; refund so a
		// job does not pay fair-share twice for work it never kept.
		jb.served -= float64(len(ids)) / jb.req.Weight
		jb.tr.Ready(len(jb.ready))
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// dispatch leases the drawn vertices of job jb to member mc and ships
// them in one job-tagged message, attaching the job's spec first if this
// member has never seen it. Returns false when every vertex turned out to
// be already finished.
func (f *Fleet[T]) dispatch(mc *memberConn, jb *job[T], ids []int32) bool {
	// The draw in nextBatch counted these vertices toward the job's quota;
	// drop that charge once their fate is settled (leases granted, vertices
	// requeued, or the batch dead). The defer runs after every return path
	// below has either granted the lease or unwound it.
	defer f.undraw(jb, len(ids))
	defer f.noteProgress()
	if jb.finished() {
		return false
	}
	now := f.clock.Now()
	// pend holds the registered vertices with their gathered data regions;
	// encoding is deferred so that in cache mode the known-set decisions
	// (full block vs content-key reference) happen under attachMu, ordered
	// against the detach that clears the member's set.
	type pendingTask struct {
		vertex, attempt int32
		deps            []int32
		blocks          []*matrix.Block[T]
	}
	pend := make([]pendingTask, 0, len(ids))
	// held collects speculation-flagged vertices this member already runs
	// the primary attempt of: the engine kept their flag, and they go back
	// on the ready stack for another member to back up.
	var held []int32
	for _, v := range ids {
		attempt, out := jb.eng.Lease(mc.id, v, len(pend), now)
		switch out {
		case engine.Held:
			held = append(held, v)
		case engine.Granted, engine.Backup:
			deps := jb.eng.Graph().Vertex(v).DataPre
			pend = append(pend, pendingTask{vertex: v, attempt: attempt, deps: deps, blocks: jb.eng.Gather(deps)})
		}
	}
	if len(held) > 0 {
		f.requeue(jb, held...)
	}
	// Leases and dispatch counters are settled; publish before the send
	// section, which can block under attachMu, so observers see the
	// grants while the wire write is still in flight.
	f.noteProgress()
	if len(pend) == 0 {
		// When the whole draw was backups this member holds the primary
		// of, consume the idle token: drawing again right away could pop
		// the same vertices forever. Another member's sender picks them up.
		return len(held) > 0
	}
	// encode builds each task's payload. Cache mode uses the keyed wire
	// format: blocks the member provably holds become references, the
	// rest ship in full and are noted as held. Must run under attachMu.
	ctrs := jb.eng.Counters()
	encode := func() ([]comm.TaskEntry, error) {
		entries := make([]comm.TaskEntry, 0, len(pend))
		for _, pt := range pend {
			var payload []byte
			var err error
			if jb.eng.Cached() && mc.known != nil {
				full := make([]matrix.KeyedBlock[T], 0, len(pt.blocks))
				var refs []matrix.BlockRef
				for i, d := range pt.deps {
					k := jb.eng.ResultKey(d)
					if mc.known.Knows(k) {
						refs = append(refs, matrix.BlockRef{Key: [32]byte(k), Rect: pt.blocks[i].Rect})
						ctrs.BlocksSkipped.Add(1)
						continue
					}
					mc.known.Note(k)
					full = append(full, matrix.KeyedBlock[T]{Key: [32]byte(k), Block: pt.blocks[i]})
					ctrs.BlocksShipped.Add(1)
				}
				payload, err = matrix.EncodeBlocksKeyed(jb.p.Codec, full, refs)
			} else {
				ctrs.BlocksShipped.Add(int64(len(pt.blocks)))
				payload, err = matrix.EncodeBlocks(jb.p.Codec, pt.blocks)
			}
			if err != nil {
				return nil, fmt.Errorf("fleet: encoding data region of vertex %d: %w", pt.vertex, err)
			}
			entries = append(entries, comm.TaskEntry{Vertex: pt.vertex, Attempt: pt.attempt, Payload: payload})
		}
		return entries, nil
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
		for _, pt := range pend {
			jb.eng.Unlease(pt.vertex, pt.attempt)
		}
		return false
	}
	entries, encErr := encode()
	var err error
	if encErr == nil {
		bytes := 0
		for _, e := range entries {
			bytes += len(e.Payload)
		}
		jb.eng.Shipped(mc.id, len(entries), bytes)
		var msg comm.Message
		if len(entries) == 1 {
			msg = comm.Message{Kind: comm.KindTask, Job: jb.id, Vertex: entries[0].Vertex, Attempt: entries[0].Attempt, Payload: entries[0].Payload}
		} else {
			msg = comm.Message{Kind: comm.KindTaskBatch, Job: jb.id, Batch: entries}
		}
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
			err = mc.cn.Send(msg)
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

// feedHungry answers a worker's hunger beacon by stealing
// queued-but-undispatched backlog toward it: across all running jobs,
// the (job, victim) pair with the deepest member backlog gives up the
// newer half of its batch entries, which are cancelled and requeued on
// that job's ready stack, where the hungry member's blocked sender picks
// them up under the same fair-share policy.
func (f *Fleet[T]) feedHungry(member int) {
	if !f.opts.Steal {
		return
	}
	f.mu.Lock()
	queued := 0
	running := make([]*job[T], 0, len(f.order))
	for _, id := range f.order {
		jb := f.jobs[id]
		queued += len(jb.ready)
		running = append(running, jb)
	}
	f.mu.Unlock()
	if queued > 0 {
		// There is queued work already; the hungry member's sender is
		// blocked in nextBatch and will draw it without help.
		return
	}
	var victimJob *job[T]
	victim, deepest := 0, 1
	for _, jb := range running {
		if jb.eng.Load(member) > 0 {
			return // the beggar still holds work of its own
		}
		if w, n := jb.eng.Deepest(member); n > deepest {
			victimJob, victim, deepest = jb, w, n
		}
	}
	if victimJob == nil {
		return
	}
	f.requeue(victimJob, victimJob.eng.StealFrom(victim, member)...)
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
	f.requeueReady(jb, ready)
}

// requeueReady pushes newly computable vertices onto jb's ready stack.
// Unlike requeue it does not refund fair-share (these were never
// dispatched). It broadcasts even with nothing new: the caller just
// released a lease, which may have opened quota room for queued work.
func (f *Fleet[T]) requeueReady(jb *job[T], ids []int32) {
	f.mu.Lock()
	if _, running := f.jobs[jb.id]; running {
		if len(ids) > 0 {
			jb.ready = append(jb.ready, ids...)
			jb.tr.Ready(len(jb.ready))
		}
		f.cond.Broadcast()
	}
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

// revoke tears down a member's connection and, job by job, puts its
// leased vertices back on that job's ready stack — each vertex returns
// to the job it belongs to, never to another (no cross-job leakage).
// Death revocations do not count toward any job's MaxAttempts.
func (f *Fleet[T]) revoke(member int) {
	f.connMu.Lock()
	mc := f.conns[member]
	delete(f.conns, member)
	f.connMu.Unlock()
	if mc != nil {
		mc.close()
		// Wake any sender blocked in nextBatch on this member.
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	f.mu.Lock()
	running := make([]*job[T], 0, len(f.order))
	for _, id := range f.order {
		running = append(running, f.jobs[id])
	}
	f.mu.Unlock()
	revoked, reassignedTotal := 0, 0
	for _, jb := range running {
		n, requeue := jb.eng.Revoke(member)
		revoked += n
		reassignedTotal += len(requeue)
		f.requeue(jb, requeue...)
	}
	f.reg.NoteRevoked(revoked, reassignedTotal)
}

// controlLoop is the fleet's fault-tolerance thread: heartbeat sweeps at
// the membership level, then per-job overtime expiry, deadline checks and
// speculation flagging.
func (f *Fleet[T]) controlLoop() {
	ticker := f.clock.NewTicker(f.opts.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.done:
			return
		case now := <-ticker.C():
			for _, id := range f.reg.Sweep(now, f.opts.HeartbeatInterval, f.opts.HeartbeatMiss) {
				f.revoke(id)
			}
			f.mu.Lock()
			running := make([]*job[T], 0, len(f.order))
			for _, id := range f.order {
				running = append(running, f.jobs[id])
			}
			f.mu.Unlock()
			for _, jb := range running {
				f.tickJob(jb, now)
			}
			if f.tuner != nil {
				f.tuneTick()
			}
		}
	}
}

// batchCap is the dispatch batch bound in effect right now: the tuner's
// recommendation under Auto, the static option otherwise.
func (f *Fleet[T]) batchCap() int {
	if f.tuner != nil {
		return f.tuner.BatchCap()
	}
	return f.opts.Batch
}

// specParams is the speculation threshold pair in effect right now.
func (f *Fleet[T]) specParams() (quantile, multiplier float64) {
	if f.tuner != nil {
		return f.tuner.SpecParams()
	}
	return f.opts.SpecQuantile, f.opts.SpecMultiplier
}

// tuneTick feeds one control-tick observation to the tuner: counter
// totals summed across running jobs plus the retired baseline, and the
// quantile pair of whichever running job shows the heaviest straggler
// tail — the fleet-wide thresholds must serve its worst case.
func (f *Fleet[T]) tuneTick() {
	f.mu.Lock()
	s := f.retired
	for _, id := range f.order {
		s.Fold(f.jobs[id].eng.Sample())
	}
	f.mu.Unlock()
	s.Hungers = f.hungers.Load()
	if d := f.tuner.Tick(s); d.Changed {
		f.opts.Trace.Tune(d.BatchCap, d.Reason)
	}
}

// TuneSnapshot reports the self-tuner's current recommendations — what
// the /metrics exposition exports as easyhps_tune_* gauges. The zero
// snapshot (ok=false) means the fleet runs with static knobs.
func (f *Fleet[T]) TuneSnapshot() (tune.Snapshot, bool) {
	if f.tuner == nil {
		return tune.Snapshot{}, false
	}
	return f.tuner.Snapshot(), true
}

// tickJob applies one control tick to one job: overtime expiry with the
// job's own MaxAttempts cap (a poisoned job fails alone), the job
// deadline, and speculation flagging. Requeues and failures stay inside
// the job's lease/attempt namespace.
func (f *Fleet[T]) tickJob(jb *job[T], now time.Time) {
	defer f.noteProgress()
	if jb.finished() {
		return
	}
	if !jb.deadline.IsZero() && now.After(jb.deadline) {
		jb.finish(fmt.Errorf("fleet: job %q exceeded its %v timeout with %d vertices remaining",
			jb.req.Name, jb.req.Timeout, jb.eng.Remaining()), now)
		f.retire(jb)
		return
	}
	requeue, err := jb.eng.Expire(now)
	if err != nil {
		jb.finish(jb.fail(err), now)
		f.retire(jb)
		return
	}
	f.requeue(jb, requeue...)
	if f.opts.Speculate {
		f.flagStragglers(jb)
	}
}

// flagStragglers flags jb's straggling attempts — in flight longer than
// the job's runtime-profile threshold — for backup dispatch. It fires
// only while the job's ready queue is empty (idle capacity should take
// queued work first) and flags at most one vertex per live member per
// tick, per job, so one job's stragglers cannot spend the pool's entire
// speculation allowance.
func (f *Fleet[T]) flagStragglers(jb *job[T]) {
	f.mu.Lock()
	queued := len(jb.ready)
	f.mu.Unlock()
	if queued > 0 {
		return
	}
	q, mult := f.specParams()
	f.requeueReady(jb, jb.eng.FlagStragglers(f.clock.Now(), q, mult,
		f.opts.SpecFloor, f.opts.SpecMinSamples, f.reg.Live()))
}

// TraceEvents returns the recorded scheduling events of the named job
// (running or retained), or nil when unknown.
func (f *Fleet[T]) TraceEvents(name string) []trace.Event {
	f.mu.Lock()
	var found *job[T]
	for _, id := range f.order {
		if jb := f.jobs[id]; jb.req.Name == name {
			found = jb
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
		jb     *job[T]
		ready  int
		drawn  int
		served float64
	}
	rows := make([]row, 0, len(f.order)+len(f.doneLog))
	queueDepth := 0
	maxServed := 0.0
	for _, id := range f.order {
		jb := f.jobs[id]
		rows = append(rows, row{jb, len(jb.ready), jb.drawn, jb.served})
		queueDepth += len(jb.ready)
		if jb.served > maxServed {
			maxServed = jb.served
		}
	}
	for _, jb := range f.doneLog {
		rows = append(rows, row{jb, 0, 0, jb.served})
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
			Ready:    r.ready,
			Weight:   jb.req.Weight,
			Priority: jb.req.Priority,
			Stats:    jb.stats(),
		}
		// The job's own latch decides, not the table it was found in: a
		// job whose Run has returned may still be a step from retirement.
		switch {
		case !jb.finished():
			st.State = "running"
			st.Inflight = jb.eng.Inflight() + r.drawn
			st.Deficit = maxServed - r.served
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
