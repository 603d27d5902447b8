package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tune"
)

// Master is the elastic counterpart of core.RunMaster: it owns the
// processor-level DAG and block store like the fixed master, but its
// worker set is a live membership table instead of a rank range — workers
// join, leave and die at any time while the DAG keeps draining.
//
// Work tracking is layered over the same internal/sched machinery the
// fixed master uses: the register table makes result acceptance
// idempotent per attempt, the overtime queue redistributes slow vertices,
// and on top of both the lease table binds every in-flight vertex to a
// member incarnation so that member death revokes and reassigns exactly
// the vertices that died with it — without waiting for their timeouts.
type Master[T any] struct {
	p      core.Problem[T]
	opts   Options
	digest string

	ln      net.Listener
	geom    dag.Geometry
	graph   *dag.Graph
	parser  *dag.Parser
	store   matrix.BlockStore[T]
	rt      *sched.RegisterTable
	ot      *sched.OvertimeQueue
	disp    sched.Dispatcher
	leases  *leaseTable
	reg     *Registry
	clock   sched.Clock
	profile *sched.RuntimeProfile

	// Speculation bookkeeping: specPending marks vertices the control
	// loop has flagged for a backup dispatch (the next sender to draw
	// them issues a RegisterBackup instead of a superseding Register);
	// backupOf remembers the live backup attempt per vertex so the
	// arbitration outcome (won vs wasted) can be classified when the
	// race resolves.
	specMu      sync.Mutex
	specPending map[int32]bool
	backupOf    map[int32]int32

	ckpt     *checkpoint.Writer
	ckptFile *os.File

	// Cross-job cache (nil when disabled). resultKey[v] is the content
	// key of v's committed payload, written by the recv loop (or restore)
	// before the dispatcher publishes v's successors, and read by
	// blockKey when a successor commits — the dispatcher's internal
	// ordering provides the happens-before edge.
	cache     *cas.Store
	cacheSpec string
	resultKey []cas.Key

	inbox chan event

	connMu sync.Mutex
	conns  map[int]*memberConn

	quorum     chan struct{}
	quorumOnce sync.Once

	done     chan struct{}
	doneOnce sync.Once
	errMu    sync.Mutex
	err      error

	ran  atomic.Bool
	ctrs Counters

	// tuner is the self-tuning controller, non-nil iff Options.Auto.
	// hungers counts hunger beacons received (the recv loop adds, the
	// control loop reads) — the starvation signal the tuner's AIMD
	// batch rule decreases on.
	tuner   *tune.Controller
	hungers atomic.Int64

	// onTick, when non-nil, runs at the end of every control-loop tick,
	// after sweep, overtime expiry and speculation have all been applied
	// for that tick — a deterministic wait point for FakeClock tests.
	onTick func()
}

// noteDeath reports a declared death to the OnDeath hook, if any.
func (m *Master[T]) noteDeath(member int) {
	if m.opts.OnDeath != nil {
		m.opts.OnDeath(member)
	}
}

// event is one unit of the master's serialized input: a message from a
// member, or a connection-failure notice from its pump.
type event struct {
	member int
	msg    comm.Message
	down   bool
	err    error
}

// memberConn is the master-side endpoint of one member.
type memberConn struct {
	id       int
	cn       *comm.Conn
	idle     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
}

func (mc *memberConn) close() {
	mc.stopOnce.Do(func() {
		close(mc.stop)
		mc.cn.Close()
	})
}

// NewMaster builds the elastic master for problem p and starts listening
// on opts.Addr (use Addr to learn the bound address). Scheduling does not
// start until Run.
func NewMaster[T any](p core.Problem[T], opts Options) (*Master[T], error) {
	opts = opts.withDefaults()
	if p.Kernel == nil {
		return nil, fmt.Errorf("cluster: problem %q has no kernel", p.Name)
	}
	if p.Codec == nil {
		return nil, fmt.Errorf("cluster: problem %q has no codec", p.Name)
	}
	if !p.Size.Valid() {
		return nil, fmt.Errorf("cluster: invalid problem size %v", p.Size)
	}
	proc := opts.Spec.Proc
	if !proc.Valid() {
		// The same default rule core.Config applies, so master and
		// workers derive identical geometries from an unset partition.
		proc = dag.Size{Rows: (p.Size.Rows + 7) / 8, Cols: (p.Size.Cols + 7) / 8}
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	geom := dag.MatrixGeometry(p.Size, proc)
	graph := dag.Build(p.Kernel.Pattern(), geom)
	m := &Master[T]{
		p:           p,
		opts:        opts,
		digest:      opts.Spec.Digest(),
		ln:          ln,
		geom:        geom,
		graph:       graph,
		parser:      dag.NewParser(graph),
		store:       matrix.NewStore[T](geom),
		rt:          sched.NewRegisterTable(),
		ot:          sched.NewOvertimeQueueClock(opts.Clock),
		disp:        sched.NewDynamic(),
		leases:      newLeaseTable(opts.Clock),
		reg:         NewRegistry(opts.Trace, opts.Clock),
		clock:       opts.Clock,
		profile:     sched.NewRuntimeProfile(0),
		specPending: make(map[int32]bool),
		backupOf:    make(map[int32]int32),
		inbox:       make(chan event, 256),
		conns:       make(map[int]*memberConn),
		quorum:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	if opts.Spec == (Spec{}) {
		m.digest = "" // zero spec disables the admission digest check
	}
	if opts.Auto {
		m.tuner = tune.New(tune.DefaultLimits(), opts.Batch,
			opts.SpecQuantile, opts.SpecMultiplier, opts.SpecMinSamples)
	}
	if opts.Cache != nil && opts.CacheKey != "" {
		m.cache = opts.Cache
		m.cacheSpec = opts.CacheKey
		m.resultKey = make([]cas.Key, len(graph.Verts))
	}
	return m, nil
}

// blockKey derives vertex v's cross-job cache key: the run's spec digest,
// the block's cell rectangle, and the content keys of its predecessors'
// committed payloads. Only called once every predecessor has committed.
func (m *Master[T]) blockKey(v int32) cas.Key {
	deps := m.graph.Vertex(v).DataPre
	preds := make([]cas.Key, len(deps))
	for i, d := range deps {
		preds[i] = m.resultKey[d]
	}
	r := m.geom.Rect(m.geom.PosOf(v))
	return cas.BlockKey(m.cacheSpec, r.Row0, r.Col0, r.Rows, r.Cols, preds)
}

// commit is the single write path for a completed block: store insert,
// content-key recording, cross-job cache write-through, and checkpoint
// append all happen here, so recovery log and cache can never diverge.
// The block was decoded from a worker's result, a checkpoint record or a
// cache entry: one that covers another region than v's fails the run here.
func (m *Master[T]) commit(v int32, payload []byte, b *matrix.Block[T]) error {
	pos := m.geom.PosOf(v)
	if err := matrix.CheckRect(m.geom, pos, b.Rect); err != nil {
		return fmt.Errorf("cluster: block committed for vertex %d: %w", v, err)
	}
	m.store.Put(pos, b)
	if m.cache != nil {
		m.resultKey[v] = cas.PayloadKey(payload)
		m.cache.PutBlock(m.blockKey(v), payload)
	}
	if m.ckpt != nil {
		return m.ckpt.Append(v, payload)
	}
	return nil
}

// absorbCached probes the cross-job cache for each newly computable
// vertex and commits hits in place, cascading through the vertices a hit
// opens. Returns the misses — what still needs dispatch. A corrupt entry
// degrades to a miss (recompute), never a wrong result.
func (m *Master[T]) absorbCached(ids []int32) []int32 {
	if m.cache == nil {
		return ids
	}
	var miss []int32
	work := append([]int32(nil), ids...)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		payload, ok := m.cache.GetBlock(m.blockKey(v), cas.LayerMaster)
		var b *matrix.Block[T]
		if ok {
			blocks, err := matrix.DecodeBlocks(m.p.Codec, payload)
			if err == nil && len(blocks) == 1 {
				b = blocks[0]
			}
		}
		if b == nil {
			m.ctrs.CacheMisses.Add(1)
			miss = append(miss, v)
			continue
		}
		m.ctrs.CacheHits.Add(1)
		if err := m.commit(v, payload, b); err != nil {
			m.finish(err)
			return miss
		}
		work = append(work, m.parser.Complete(v)...)
		m.progress()
	}
	return miss
}

// Addr returns the address the master listens on.
func (m *Master[T]) Addr() string { return m.ln.Addr().String() }

// Registry exposes the membership table (metrics, tests, the job
// service's /metrics exposition).
func (m *Master[T]) Registry() *Registry { return m.reg }

// finish ends the run exactly once, recording err (nil for success).
func (m *Master[T]) finish(err error) {
	m.doneOnce.Do(func() {
		m.errMu.Lock()
		m.err = err
		m.errMu.Unlock()
		close(m.done)
		m.disp.Close()
	})
}

// Run executes the run to completion: restore the checkpoint prefix,
// wait for the MinWorkers quorum, then schedule until the DAG drains.
// Cancelling ctx finishes the run with ctx's error; completed vertices
// are already persisted, so a later master resumes where this one
// stopped. Run may be called once per Master.
func (m *Master[T]) Run(ctx context.Context) (*Result[T], error) {
	if !m.ran.CompareAndSwap(false, true) {
		return nil, errors.New("cluster: Run called twice")
	}
	start := time.Now()
	defer m.teardown()

	if err := m.restore(); err != nil {
		m.finish(err)
		return nil, err
	}

	if cancel := ctx.Done(); cancel != nil {
		go func() {
			select {
			case <-cancel:
				m.finish(ctx.Err())
			case <-m.done:
			}
		}()
	}
	if m.opts.RunTimeout > 0 {
		timer := time.AfterFunc(m.opts.RunTimeout, func() {
			m.finish(fmt.Errorf("cluster: run exceeded RunTimeout %v with %d vertices remaining", m.opts.RunTimeout, m.parser.Remaining()))
		})
		defer timer.Stop()
	}

	go m.acceptLoop()

	var helpers sync.WaitGroup
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		m.controlLoop()
	}()

	// The restore may have completed the whole DAG; otherwise wait for
	// the quorum before counting on progress.
	if !m.finished() {
		joinTimer := time.NewTimer(m.opts.JoinWindow)
		select {
		case <-m.quorum:
			joinTimer.Stop()
		case <-joinTimer.C:
			m.finish(fmt.Errorf("cluster: %d workers did not join within %v", m.opts.MinWorkers, m.opts.JoinWindow))
		case <-ctx.Done():
			joinTimer.Stop()
			m.finish(ctx.Err())
		case <-m.done:
			joinTimer.Stop()
		}
	}

	m.recvLoop()
	helpers.Wait()

	m.errMu.Lock()
	err := m.err
	m.errMu.Unlock()
	if err != nil {
		return nil, err
	}
	joins, leaves, deaths, revoked, reassigned := m.reg.MembershipCounts()
	stats := m.ctrs.Stats()
	stats.Joins = joins
	stats.Leaves = leaves
	stats.Deaths = deaths
	stats.LeasesRevoked = revoked
	stats.Reassigned = reassigned
	stats.Leaked = int64(m.rt.Outstanding() + m.leases.len())
	stats.Elapsed = time.Since(start)
	return &Result[T]{Store: m.store, Stats: stats}, nil
}

// Snapshot merges the registry's membership view with the master's
// straggler-mitigation counters — the monitoring surface the job
// service's /metrics exposition reads.
func (m *Master[T]) Snapshot() Snapshot {
	s := m.reg.Metrics()
	s.Speculated = m.ctrs.Speculated.Load()
	s.SpecWon = m.ctrs.SpecWon.Load()
	s.SpecWasted = m.ctrs.SpecWasted.Load()
	s.Steals = m.ctrs.Steals.Load()
	return s
}

// TuneSnapshot reports the self-tuner's current recommendations — what
// the /metrics exposition exports as easyhps_tune_* gauges. The zero
// snapshot (ok=false) means the master runs with static knobs.
func (m *Master[T]) TuneSnapshot() (tune.Snapshot, bool) {
	if m.tuner == nil {
		return tune.Snapshot{}, false
	}
	return m.tuner.Snapshot(), true
}

func (m *Master[T]) finished() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// teardown dismisses every member, stops listening and closes the
// checkpoint stream.
func (m *Master[T]) teardown() {
	m.ln.Close()
	m.connMu.Lock()
	conns := make([]*memberConn, 0, len(m.conns))
	for _, mc := range m.conns {
		conns = append(conns, mc)
	}
	m.connMu.Unlock()
	for _, mc := range conns {
		_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
		mc.close()
	}
	if m.ckptFile != nil {
		m.ckptFile.Close()
	}
}

// restore replays the checkpoint's clean prefix (truncating any torn
// tail) and hands the remaining computable frontier to the dispatcher.
// Without a checkpoint the frontier is the DAG roots.
func (m *Master[T]) restore() error {
	ready := make(map[int32]bool)
	for _, id := range m.parser.InitialReady() {
		ready[id] = true
	}
	if m.opts.CheckpointPath != "" {
		w, f, n, err := checkpoint.OpenAppend(m.opts.CheckpointPath, func(v int32, payload []byte) error {
			if int(v) < 0 || int(v) >= len(m.graph.Verts) || !m.graph.Vertex(v).Exists {
				return fmt.Errorf("cluster: checkpoint names unknown vertex %d", v)
			}
			if !ready[v] {
				return fmt.Errorf("cluster: checkpoint record for vertex %d out of order", v)
			}
			blocks, err := matrix.DecodeBlocks(m.p.Codec, payload)
			if err != nil || len(blocks) != 1 {
				return fmt.Errorf("cluster: checkpoint payload for vertex %d: %v", v, err)
			}
			// commit re-records the content key and warms the cross-job
			// cache; m.ckpt is still nil during OpenAppend's replay, so
			// nothing is double-appended.
			if err := m.commit(v, payload, blocks[0]); err != nil {
				return err
			}
			delete(ready, v)
			for _, nv := range m.parser.Complete(v) {
				ready[nv] = true
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.ckpt, m.ckptFile, _ = w, f, n
		m.ctrs.Restored.Store(int64(n))
	}
	frontier := make([]int32, 0, len(ready))
	for id := range ready {
		frontier = append(frontier, id)
	}
	m.progress()
	frontier = m.absorbCached(frontier)
	m.disp.Ready(frontier...)
	if m.parser.Finished() {
		m.finish(nil)
	}
	return nil
}

// acceptLoop admits workers for the whole lifetime of the run: elastic
// join is just "the accept loop never stops".
func (m *Master[T]) acceptLoop() {
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return // listener closed in teardown
		}
		go m.admit(c)
	}
}

// admit performs the join handshake on one fresh connection and, on
// success, registers the member and starts its pump and sender.
func (m *Master[T]) admit(c net.Conn) {
	cn := comm.NewConn(c, 0)
	hello, err := cn.RecvHello(10 * time.Second)
	if err != nil {
		cn.Close()
		return
	}
	if reason := comm.CheckHello(hello, m.digest); reason != "" {
		cn.Reject(reason)
		return
	}
	if !hello.Elastic {
		cn.Reject("this master runs an elastic cluster; start the worker with -elastic (no -rank)")
		return
	}
	if m.finished() {
		cn.Reject("run already finished")
		return
	}
	member := m.reg.Admit(hello.Name, c.RemoteAddr().String())
	if err := cn.SendWelcome(comm.Welcome{Version: comm.ProtocolVersion, Member: member.ID}); err != nil {
		m.reg.MarkDead(member.ID)
		m.noteDeath(member.ID)
		cn.Close()
		return
	}
	// A healthy member heartbeats every interval; its link may stay
	// silent for at most the death threshold plus one interval of slack
	// before the pump fails it. Sends get the same bound, so a peer that
	// stopped reading cannot wedge the master's loops.
	cn.SetReadIdle(time.Duration(m.opts.HeartbeatMiss+1) * m.opts.HeartbeatInterval)
	cn.SetWriteTimeout(time.Duration(m.opts.HeartbeatMiss+1) * m.opts.HeartbeatInterval)
	mc := &memberConn{
		id:   member.ID,
		cn:   cn,
		idle: make(chan struct{}, 4),
		stop: make(chan struct{}),
	}
	m.connMu.Lock()
	m.conns[member.ID] = mc
	live := len(m.conns)
	m.connMu.Unlock()
	if live >= m.opts.MinWorkers {
		m.quorumOnce.Do(func() { close(m.quorum) })
	}
	go m.pump(mc)
	go m.senderLoop(mc)
}

// pump reads one member's messages into the master inbox; a connection
// error becomes a down event (the fast path of failure detection —
// heartbeat loss is the slow path for wedged-but-open links).
func (m *Master[T]) pump(mc *memberConn) {
	for {
		msg, err := mc.cn.Recv()
		if err != nil {
			select {
			case m.inbox <- event{member: mc.id, down: true, err: err}:
			case <-m.done:
			}
			return
		}
		select {
		case m.inbox <- event{member: mc.id, msg: msg}:
		case <-m.done:
			return
		}
	}
}

// senderLoop dispatches work to one member whenever it is idle, mirroring
// the fixed master's per-slave sender.
func (m *Master[T]) senderLoop(mc *memberConn) {
	for {
		select {
		case <-mc.idle:
		case <-mc.stop:
			return
		case <-m.done:
			_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
			return
		}
		for {
			var ids []int32
			if cap := m.batchCap(); cap > 1 {
				var ok bool
				ids, ok = m.disp.NextBatch(mc.id, cap)
				if !ok {
					_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
					return
				}
			} else {
				v, ok := m.disp.Next(mc.id)
				if !ok {
					_ = mc.cn.Send(comm.Message{Kind: comm.KindEnd})
					return
				}
				ids = []int32{v}
			}
			select {
			case <-mc.stop:
				// The member died while this sender waited for work;
				// hand the vertices back for a live member.
				for _, v := range ids {
					m.disp.Requeue(v)
				}
				return
			default:
			}
			if m.dispatch(mc, ids) {
				break
			}
			// Every drawn vertex finished while queued for redistribution
			// (its result raced a revocation); take the next one without
			// consuming another idle token.
		}
	}
}

// dispatch leases the drawn vertices to member mc and ships their data
// regions in one message (a plain task for a single vertex, a task batch
// for several). Every vertex holds its own lease, so a member death
// mid-batch revokes and reassigns exactly the undone remainder. It
// returns false when every vertex turned out to be already finished.
//
// A vertex flagged by the speculation loop is dispatched as a backup: a
// concurrent attempt that does not supersede the original, so whichever
// result lands first wins and the loser is dropped by stamp.
func (m *Master[T]) dispatch(mc *memberConn, ids []int32) bool {
	now := m.clock.Now()
	entries := make([]comm.TaskEntry, 0, len(ids))
	for _, v := range ids {
		attempt, ok, backup := m.register(mc.id, v)
		if !ok {
			continue
		}
		deps := m.graph.Vertex(v).DataPre
		positions := make([]dag.Pos, len(deps))
		for k, d := range deps {
			positions[k] = m.geom.PosOf(d)
		}
		blocks := m.store.Gather(positions)
		payload, err := matrix.EncodeBlocks(m.p.Codec, blocks)
		if err != nil {
			m.finish(fmt.Errorf("cluster: encoding data region of vertex %d: %w", v, err))
			return true
		}
		// Batch entries execute sequentially on the member, so entry i's
		// overtime deadline scales with its position; a healthy deep
		// entry must not be redistributed just for waiting its turn.
		deadline := now.Add(m.opts.TaskTimeout * time.Duration(len(entries)+1))
		if backup {
			m.leases.add(v, mc.id, attempt)
			m.ot.AddConcurrent(v, attempt, deadline)
			m.ctrs.Speculated.Add(1)
			m.opts.Trace.Speculate(mc.id, v)
		} else {
			m.leases.grant(v, mc.id, attempt)
			m.ot.Add(v, attempt, deadline)
		}
		m.opts.Trace.TaskStart(mc.id, v)
		m.ctrs.Dispatches.Add(1)
		entries = append(entries, comm.TaskEntry{Vertex: v, Attempt: attempt, Payload: payload})
	}
	if len(entries) == 0 {
		return false
	}
	bytes := 0
	for _, e := range entries {
		bytes += len(e.Payload)
	}
	m.ctrs.TaskBytes.Add(int64(bytes))
	m.opts.Trace.Dispatch(mc.id, len(entries), bytes)
	var msg comm.Message
	if len(entries) == 1 {
		msg = comm.Message{Kind: comm.KindTask, Vertex: entries[0].Vertex, Attempt: entries[0].Attempt, Payload: entries[0].Payload}
	} else {
		m.ctrs.BatchMessages.Add(1)
		msg = comm.Message{Kind: comm.KindTaskBatch, Batch: entries}
	}
	if err := mc.cn.Send(msg); err != nil {
		// The pump (or heartbeat sweep) will revoke this member's
		// leases, including the ones just granted; nothing to unwind.
		select {
		case m.inbox <- event{member: mc.id, down: true, err: err}:
		case <-m.done:
		}
	}
	return true
}

// register claims an attempt of v for member. For an ordinary draw it is
// rt.Register; for a vertex flagged by the speculation loop it issues a
// concurrent backup attempt instead — unless the drawing member already
// holds a lease on v (it would be backing itself up), in which case the
// flag is dropped and the control loop may re-flag the vertex next tick.
func (m *Master[T]) register(member int, v int32) (attempt int32, ok, backup bool) {
	m.specMu.Lock()
	pending := m.specPending[v]
	delete(m.specPending, v)
	m.specMu.Unlock()
	if !pending {
		a, ok := m.rt.Register(v)
		return a, ok, false
	}
	for _, l := range m.leases.holders(v) {
		if l.Worker == member {
			return 0, false, false
		}
	}
	a, ok := m.rt.RegisterBackup(v)
	if !ok {
		// The original finished, or was cancelled, while the flag waited
		// in the ready queue; an uncovered unfinished vertex is always
		// re-dispatched through the normal requeue path, so nothing is
		// lost by skipping.
		return 0, false, false
	}
	m.specMu.Lock()
	m.backupOf[v] = a
	m.specMu.Unlock()
	return a, true, true
}

// recvLoop serializes membership and result handling until the run ends.
func (m *Master[T]) recvLoop() {
	for {
		select {
		case <-m.done:
			return
		case ev := <-m.inbox:
			if ev.down {
				m.memberDown(ev.member, ev.err)
				continue
			}
			m.reg.Beat(ev.member) // any traffic proves liveness
			switch ev.msg.Kind {
			case comm.KindIdle:
				m.signalIdle(ev.member)
			case comm.KindHeartbeat:
				m.echoHeartbeat(ev.member)
			case comm.KindLeave:
				m.memberLeave(ev.member)
			case comm.KindHunger:
				m.feedHungry(ev.member)
			case comm.KindResult:
				m.applyResult(ev.member, ev.msg.Vertex, ev.msg.Attempt, ev.msg.Payload)
				// More marks a partial flush of a still-executing
				// batch; the member is not idle yet.
				if !ev.msg.More {
					m.signalIdle(ev.member)
				}
			case comm.KindResultBatch:
				for _, e := range ev.msg.Batch {
					m.applyResult(ev.member, e.Vertex, e.Attempt, e.Payload)
				}
				if !ev.msg.More {
					m.signalIdle(ev.member)
				}
			default:
				// A kind this master never expects from a worker is
				// protocol corruption or version skew, not a race; tear
				// the member down so its leases reassign, rather than
				// dropping frames silently.
				m.memberDown(ev.member, fmt.Errorf("cluster: member %d sent unexpected %v frame", ev.member, ev.msg.Kind))
			}
		}
	}
}

func (m *Master[T]) signalIdle(member int) {
	m.connMu.Lock()
	mc := m.conns[member]
	m.connMu.Unlock()
	if mc == nil {
		return
	}
	select {
	case mc.idle <- struct{}{}:
	default:
	}
}

// feedHungry answers a worker's hunger announcement (its pool has been
// drained beyond its patience) by stealing queued-but-undispatched
// backlog from the most loaded member: the tail of that member's leases
// — batch entries it has not reached yet — is revoked, cancelled and
// requeued, where the hungry member's blocked sender picks it up. The
// lease/attempt machinery makes the hand-off exact: the victim's later
// results for stolen entries carry retired stamps and are dropped as
// stale, and a death mid-steal requeues only what remains uncovered.
func (m *Master[T]) feedHungry(member int) {
	m.hungers.Add(1)
	if !m.opts.Steal {
		return
	}
	if m.disp.ReadyCount() > 0 {
		// There is queued work already; the hungry member's sender is
		// blocked in Next and will draw it without help.
		return
	}
	if m.leases.load(member) > 0 {
		return // not actually idle: it still owes results
	}
	// Victim: the member with the deepest backlog, at least two leases
	// deep (the head entry is the one it is executing right now).
	victim, deepest := 0, 1
	for w, n := range m.leases.loads() {
		if w != member && n > deepest {
			victim, deepest = w, n
		}
	}
	if victim == 0 {
		return
	}
	backlog := m.leases.memberLeases(victim)
	if len(backlog) < 2 {
		return
	}
	// Steal the newer half of the backlog (tail by grant sequence),
	// leaving the head — and anything involved in a speculative race —
	// with the victim.
	stolen := 0
	for _, l := range backlog[(len(backlog)+1)/2:] {
		if m.rt.LiveAttempts(l.Vertex) != 1 {
			continue
		}
		m.leases.releaseAttempt(l.Vertex, l.Attempt)
		m.ot.RemoveAttempt(l.Vertex, l.Attempt)
		if m.rt.CancelAttempt(l.Vertex, l.Attempt) == 0 {
			m.disp.Requeue(l.Vertex)
			stolen++
		}
	}
	if stolen > 0 {
		m.ctrs.Steals.Add(int64(stolen))
		m.opts.Trace.Steal(member, stolen)
		m.opts.Trace.Ready(m.disp.ReadyCount())
	}
}

// echoHeartbeat answers a worker beacon, giving the worker's read-idle
// bound the periodic traffic it needs to distinguish a slow master from
// a dead one.
func (m *Master[T]) echoHeartbeat(member int) {
	m.connMu.Lock()
	mc := m.conns[member]
	m.connMu.Unlock()
	if mc != nil {
		_ = mc.cn.Send(comm.Message{Kind: comm.KindHeartbeat})
	}
}

// applyResult commits one computed vertex — the per-vertex core of result
// handling, shared by the single-result and batched paths. Accept
// arbitrates concurrent attempts: the first live result (original or
// speculative backup) wins and retires every other attempt, so the
// loser's later delivery falls into the stale branch.
func (m *Master[T]) applyResult(member int, v, attempt int32, payload []byte) {
	if !m.rt.Accept(v, attempt) {
		// A superseded attempt: the vertex was revoked (member declared
		// dead, or overtime) and reassigned, or a concurrent attempt
		// already won the speculative race; drop the late answer.
		m.ctrs.StaleResults.Add(1)
		return
	}
	m.ot.Remove(v)
	if l, ok := m.leases.find(v, attempt); ok {
		m.profile.Observe(m.clock.Now().Sub(l.Granted))
	}
	m.leases.release(v)
	m.specMu.Lock()
	if backup, ok := m.backupOf[v]; ok {
		delete(m.backupOf, v)
		delete(m.specPending, v)
		if backup == attempt {
			m.ctrs.SpecWon.Add(1)
		} else {
			m.ctrs.SpecWasted.Add(1)
		}
	}
	m.specMu.Unlock()
	blocks, err := matrix.DecodeBlocks(m.p.Codec, payload)
	if err != nil || len(blocks) != 1 {
		m.finish(fmt.Errorf("cluster: bad result payload for vertex %d from member %d: %v", v, member, err))
		return
	}
	if err := m.commit(v, payload, blocks[0]); err != nil {
		m.finish(err)
		return
	}
	m.reg.NoteCompleted(member)
	m.opts.Trace.TaskEnd(member, v)
	m.ctrs.Tasks.Add(1)
	newly := m.parser.Complete(v)
	m.progress()
	newly = m.absorbCached(newly)
	m.disp.Ready(newly...)
	m.opts.Trace.Ready(m.disp.ReadyCount())
	if m.parser.Finished() {
		m.finish(nil)
	}
}

func (m *Master[T]) progress() {
	if m.opts.OnProgress == nil {
		return
	}
	m.opts.OnProgress(m.graph.N-m.parser.Remaining(), m.graph.N)
}

// memberDown declares a member dead and reassigns its leased vertices.
// It is idempotent: the pump, a failed send and the heartbeat sweep may
// all report the same member.
func (m *Master[T]) memberDown(member int, cause error) {
	if !m.reg.MarkDead(member) {
		return
	}
	_ = cause
	m.noteDeath(member)
	m.revoke(member)
}

// memberLeave handles a graceful departure: same lease revocation, nicer
// bookkeeping.
func (m *Master[T]) memberLeave(member int) {
	if !m.reg.MarkLeft(member) {
		return
	}
	m.revoke(member)
}

// revoke tears down a member's connection and puts its leased vertices
// back on the ready stack for live members. Death-triggered revocations
// deliberately do not count toward MaxAttempts — an elastic cluster must
// survive any number of worker failures as long as capacity remains; the
// MaxAttempts guard stays on the overtime path, where repeated timeouts
// of the same vertex indicate a poisoned task rather than lost hardware.
func (m *Master[T]) revoke(member int) {
	m.connMu.Lock()
	mc := m.conns[member]
	delete(m.conns, member)
	m.connMu.Unlock()
	if mc != nil {
		mc.close()
	}
	leases := m.leases.revokeMember(member)
	reassigned := 0
	for _, l := range leases {
		m.ot.RemoveAttempt(l.Vertex, l.Attempt)
		m.noteAttemptGone(l.Vertex, l.Attempt)
		// Only requeue when no concurrent attempt survives: if the dead
		// member held one side of a speculative race, the other side
		// still covers the vertex.
		if m.rt.CancelAttempt(l.Vertex, l.Attempt) == 0 {
			m.disp.Requeue(l.Vertex)
			reassigned++
		}
	}
	m.reg.NoteRevoked(len(leases), reassigned)
	if reassigned > 0 {
		m.opts.Trace.Ready(m.disp.ReadyCount())
	}
}

// noteAttemptGone records the speculation-accounting consequence of one
// attempt of v dying (worker death, overtime expiry or a steal): a dead
// backup was wasted; a dead original turns its backup into the sole
// attempt, no longer a race to classify.
func (m *Master[T]) noteAttemptGone(v, attempt int32) {
	m.specMu.Lock()
	if backup, ok := m.backupOf[v]; ok {
		delete(m.backupOf, v)
		if backup == attempt {
			m.ctrs.SpecWasted.Add(1)
		}
	}
	m.specMu.Unlock()
}

// controlLoop is the fault-tolerance thread of the elastic master: it
// applies heartbeat deadlines to the membership table, overtime
// deadlines to in-flight attempts, and — when enabled — flags straggling
// attempts for speculative backups.
func (m *Master[T]) controlLoop() {
	ticker := m.clock.NewTicker(m.opts.CheckInterval)
	defer ticker.Stop()
	// timeouts counts overtime expiries per vertex: the MaxAttempts guard
	// for poisoned tasks. Speculative backups and death revocations bump
	// the attempt stamp without indicting the task, so the register
	// table's attempt count is no longer the right measure.
	timeouts := make(map[int32]int)
	for {
		select {
		case <-m.done:
			return
		case now := <-ticker.C():
			for _, id := range m.reg.Sweep(now, m.opts.HeartbeatInterval, m.opts.HeartbeatMiss) {
				// Sweep already marked it dead; revoke directly (the
				// MarkDead in memberDown would see a dead member and
				// skip).
				m.noteDeath(id)
				m.revoke(id)
			}
			for _, e := range m.ot.ExpireBefore(now) {
				m.leases.releaseAttempt(e.ID, e.Attempt)
				m.noteAttemptGone(e.ID, e.Attempt)
				timeouts[e.ID]++
				if timeouts[e.ID] >= m.opts.MaxAttempts {
					m.finish(fmt.Errorf("cluster: vertex %d timed out %d times (MaxAttempts); giving up", e.ID, timeouts[e.ID]))
					return
				}
				// Requeue only when no concurrent attempt still covers
				// the vertex.
				if m.rt.CancelAttempt(e.ID, e.Attempt) == 0 {
					m.ctrs.Redistributions.Add(1)
					m.disp.Requeue(e.ID)
				}
			}
			if m.opts.Speculate {
				m.maybeSpeculate()
			}
			if m.tuner != nil {
				m.tuneTick()
			}
			if m.onTick != nil {
				m.onTick()
			}
		}
	}
}

// maybeSpeculate flags in-flight attempts whose age exceeds the runtime
// profile's threshold for backup dispatch. Flagged vertices are pushed
// onto the ready stack; an idle sender draws them and register() turns
// the draw into a concurrent backup attempt. Speculation only fires when
// the ready queue is empty — while real work is queued, idle capacity
// should take that first.
func (m *Master[T]) maybeSpeculate() {
	if m.disp.ReadyCount() > 0 {
		return
	}
	q, mult := m.specParams()
	threshold, ok := m.profile.Threshold(q, mult, m.opts.SpecFloor, m.opts.SpecMinSamples)
	if !ok {
		return // cold profile: not enough completions to judge stragglers
	}
	// At most one new backup per live member per tick keeps a burst of
	// stragglers from flooding the queue with speculative work.
	budget := m.reg.Live()
	var flagged []int32
	for _, l := range m.leases.olderThan(threshold) {
		if budget == 0 {
			break
		}
		if m.rt.LiveAttempts(l.Vertex) != 1 {
			continue // already racing a backup
		}
		m.specMu.Lock()
		skip := m.specPending[l.Vertex]
		if !skip {
			m.specPending[l.Vertex] = true
		}
		m.specMu.Unlock()
		if skip {
			continue
		}
		flagged = append(flagged, l.Vertex)
		budget--
	}
	if len(flagged) > 0 {
		m.disp.Ready(flagged...)
	}
}

// batchCap is the dispatch batch bound in effect right now: the
// tuner's recommendation under Auto, the static option otherwise.
func (m *Master[T]) batchCap() int {
	if m.tuner != nil {
		return m.tuner.BatchCap()
	}
	return m.opts.Batch
}

// specParams is the speculation threshold pair in effect right now.
func (m *Master[T]) specParams() (quantile, multiplier float64) {
	if m.tuner != nil {
		return m.tuner.SpecParams()
	}
	return m.opts.SpecQuantile, m.opts.SpecMultiplier
}

// tuneTick feeds one control-tick observation to the tuner and traces
// the recommendation when it moved. Runs on the control loop after the
// tick's sweeps and speculation, so the sample reflects this tick's
// outcomes.
func (m *Master[T]) tuneTick() {
	sample := tune.Sample{
		Dispatches: m.ctrs.Dispatches.Load(),
		TaskBytes:  m.ctrs.TaskBytes.Load(),
		Hungers:    m.hungers.Load(),
		Steals:     m.ctrs.Steals.Load(),
		SpecWon:    m.ctrs.SpecWon.Load(),
		SpecWasted: m.ctrs.SpecWasted.Load(),
	}
	if n := m.profile.Samples(); n > 0 {
		p50, _ := m.profile.Quantile(0.5)
		p95, _ := m.profile.Quantile(0.95)
		sample.ProfileP50, sample.ProfileP95, sample.ProfileSamples = p50, p95, n
	}
	if d := m.tuner.Tick(sample); d.Changed {
		m.opts.Trace.Tune(d.BatchCap, d.Reason)
	}
}
