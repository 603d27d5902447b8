package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tune"
)

// master is the master part of the runtime (Figs. 9-10 of the paper): it
// owns the master DAG Data Driven Model, the master worker pool with one
// worker goroutine per slave node, the sub-task register table, the master
// overtime queue and the fault-tolerance goroutine.
type master[T any] struct {
	p   Problem[T]
	cfg Config
	tr  comm.Transport

	geom    dag.Geometry
	graph   *dag.Graph
	parser  *dag.Parser
	disp    sched.Dispatcher
	store   matrix.BlockStore[T]
	reg     *sched.RegisterTable
	ot      *sched.OvertimeQueue
	ctrs    *counters
	leases  *sched.LeaseTable
	profile *sched.RuntimeProfile

	idle []chan struct{} // indexed by slave rank (1..Slaves)

	// waiting[s] is set while slave s's sender is blocked in the
	// dispatcher: the slave is idle with nothing computable — the
	// starvation signal the work-stealing path reacts to.
	waiting []atomic.Bool

	// Speculation bookkeeping, mirroring the elastic master: specPending
	// marks vertices flagged for a backup dispatch; backupOf remembers
	// the live backup attempt per vertex for won/wasted classification.
	specMu      sync.Mutex
	specPending map[int32]bool
	backupOf    map[int32]int32

	// uses[v] counts the not-yet-finished sub-tasks whose data region
	// includes block v; when ReclaimBlocks is set and the count drops to
	// zero the block is released (only touched from the recv loop and
	// the restore replay, so unsynchronized).
	uses []int32
	ckpt *checkpoint.Writer

	// known[s][v] records that slave s holds block v (delta shipping):
	// either it was shipped there or the slave computed it. Guarded by
	// knownMu (senders and the recv loop both touch it).
	knownMu sync.Mutex
	known   [][]bool

	// Cross-job memoization (Config.Cache). resultKey[v] is the content
	// key of v's committed payload; entries are written by the recv loop
	// (and the restore replay) before the dispatcher publishes v's
	// successors, so senders reading a completed dependency's key are
	// ordered behind the write by the dispatcher's own lock. peers[s],
	// present when DeltaShipping is also on, is slave s's known-set
	// generalized to content keys — issued by the store so wire-layer
	// hits and misses land in its metrics.
	cache     *cas.Store
	cacheSpec string
	resultKey []cas.Key
	peers     []*cas.PeerSet

	// tuner is the self-tuning controller, non-nil iff Config.Auto.
	// hungers accumulates starved-sender observations per control tick;
	// only the fault-tolerance loop touches it.
	tuner   *tune.Controller
	hungers int64

	done     chan struct{}
	doneOnce sync.Once
	errMu    sync.Mutex
	err      error
}

// Speculation tuning shared with the elastic master's defaults: an attempt
// is a straggler when it has been running longer than specMultiplier times
// the specQuantile of observed runtimes, judged only once specMinSamples
// completions have warmed the profile.
const (
	specQuantile   = 0.95
	specMultiplier = 2
	specMinSamples = 8
)

// runMaster executes the master part over transport tr and returns the
// completed matrix store. cfg must already have defaults applied.
// Cancelling ctx finishes the run with ctx's error.
func runMaster[T any](ctx context.Context, p Problem[T], cfg Config, tr comm.Transport, ctrs *counters) (*Result[T], error) {
	geom := dag.MatrixGeometry(p.Size, cfg.ProcPartition)
	graph := dag.Build(p.Kernel.Pattern(), geom)
	var store matrix.BlockStore[T] = matrix.NewStore[T](geom)
	if cfg.SpillDir != "" {
		ss, err := matrix.NewSpillStore(geom, p.Codec, cfg.SpillDir, cfg.SpillBudget)
		if err != nil {
			return nil, err
		}
		store = ss
	}
	m := &master[T]{
		p:           p,
		cfg:         cfg,
		tr:          tr,
		geom:        geom,
		graph:       graph,
		parser:      dag.NewParser(graph),
		store:       store,
		reg:         sched.NewRegisterTable(),
		ot:          sched.NewOvertimeQueue(),
		ctrs:        ctrs,
		leases:      sched.NewLeaseTable(),
		profile:     sched.NewRuntimeProfile(0),
		specPending: make(map[int32]bool),
		backupOf:    make(map[int32]int32),
		idle:        make([]chan struct{}, cfg.Slaves+1),
		waiting:     make([]atomic.Bool, cfg.Slaves+1),
		done:        make(chan struct{}),
	}
	if cfg.Auto {
		m.tuner = tune.New(tune.DefaultLimits(), cfg.Batch, specQuantile, specMultiplier, specMinSamples)
	}
	switch cfg.Policy {
	case PolicyBlockCyclic:
		m.disp = sched.NewBlockCyclic(graph, cfg.Slaves, cfg.BCWBlockCols)
	case PolicyAffinity:
		m.disp = newAffinityDispatcher(m.affinityScore)
	default:
		m.disp = sched.NewDynamic()
	}
	for s := 1; s <= cfg.Slaves; s++ {
		m.idle[s] = make(chan struct{}, 4)
	}
	if cfg.ReclaimBlocks {
		m.uses = make([]int32, len(graph.Verts))
		for _, id := range graph.Existing() {
			for _, d := range graph.Vertex(id).DataPre {
				m.uses[d]++
			}
		}
	}
	if cfg.Checkpoint != nil {
		m.ckpt = checkpoint.NewWriter(cfg.Checkpoint)
	}
	if cfg.DeltaShipping {
		m.known = make([][]bool, cfg.Slaves+1)
		for s := 1; s <= cfg.Slaves; s++ {
			m.known[s] = make([]bool, len(graph.Verts))
		}
	}
	if cfg.Cache != nil && cfg.CacheKey != "" {
		m.cache = cfg.Cache
		m.cacheSpec = cfg.CacheKey
		m.resultKey = make([]cas.Key, len(graph.Verts))
		if m.known != nil {
			m.peers = make([]*cas.PeerSet, cfg.Slaves+1)
			for s := 1; s <= cfg.Slaves; s++ {
				m.peers[s] = m.cache.NewPeerSet()
			}
		}
	}
	if err := m.restore(); err != nil {
		return nil, err
	}

	if cfg.RunTimeout > 0 {
		timer := time.AfterFunc(cfg.RunTimeout, func() {
			m.finish(fmt.Errorf("core: run exceeded RunTimeout %v with %d sub-tasks remaining", cfg.RunTimeout, m.parser.Remaining()))
		})
		defer timer.Stop()
	}

	// Cancellation watch: the master loop's select lives in the sender and
	// receive goroutines, so cancellation is injected through finish, which
	// closes m.done and the dispatcher — every sender then drains with an
	// End signal and the run unwinds.
	if cancel := ctx.Done(); cancel != nil {
		go func() {
			select {
			case <-cancel:
				m.finish(ctx.Err())
			case <-m.done:
			}
		}()
	}

	var ftWG sync.WaitGroup
	ftWG.Add(1)
	go func() {
		defer ftWG.Done()
		m.faultToleranceLoop()
	}()

	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		m.recvLoop()
	}()

	var senders sync.WaitGroup
	for s := 1; s <= cfg.Slaves; s++ {
		senders.Add(1)
		go func(s int) {
			defer senders.Done()
			m.senderLoop(s)
		}(s)
	}
	senders.Wait()

	// All End signals sent; shut the endpoint to unblock the receive
	// loop, then collect the helpers.
	m.tr.Close()
	//lint:ignore ctx-select bounded join: tr.Close() above forces recvLoop's Recv to error out, and cancellation already flowed through finish — selecting on ctx here would leak the loop
	<-recvDone
	ftWG.Wait()

	if ss, ok := m.store.(*matrix.SpillStore[T]); ok {
		spills, loads := ss.IO()
		ctrs.spills.Store(spills)
		ctrs.spillLoads.Store(loads)
	}

	m.errMu.Lock()
	err := m.err
	m.errMu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Result[T]{Store: m.store}, nil
}

// finish ends the run exactly once, recording err (nil for success).
func (m *master[T]) finish(err error) {
	m.doneOnce.Do(func() {
		m.errMu.Lock()
		m.err = err
		m.errMu.Unlock()
		close(m.done)
		m.disp.Close()
	})
}

// senderLoop is one worker thread of the master worker pool: it waits for
// its slave to be idle, takes a computable sub-task from the dispatcher,
// registers it, ships the data region, and arms the overtime watch
// (§V.B steps d-e).
func (m *master[T]) senderLoop(s int) {
	worker := s - 1
	for {
		select {
		case <-m.idle[s]:
		case <-m.done:
			m.sendEnd(s)
			return
		}
		for {
			// The cap is re-read per draw: under Auto the controller
			// moves it while the run is in flight.
			if cap := m.batchCap(); cap > 1 {
				m.waiting[s].Store(true)
				ids, ok := m.disp.NextBatch(worker, cap)
				m.waiting[s].Store(false)
				if !ok {
					m.sendEnd(s)
					return
				}
				if m.dispatchBatch(s, worker, ids) {
					break
				}
			} else {
				m.waiting[s].Store(true)
				v, ok := m.disp.Next(worker)
				m.waiting[s].Store(false)
				if !ok {
					m.sendEnd(s)
					return
				}
				if m.dispatch(s, worker, v) {
					break
				}
			}
			// Every drawn vertex finished while queued for
			// redistribution (its result raced the timeout); take the
			// next one without consuming another idle token.
		}
	}
}

func (m *master[T]) sendEnd(s int) {
	_ = m.tr.Send(s, comm.Message{Kind: comm.KindEnd})
}

// prepareEntry registers vertex v for slave s and builds its wire entry:
// attempt stamp plus the encoded missing part of the data region. ok is
// false when the vertex finished while queued for redistribution (its
// result raced the timeout) or when encoding failed — the latter also
// aborts the run through finish, so the caller's dispatcher drains.
//
// A vertex flagged by the speculation pass is dispatched as a backup: a
// concurrent attempt that does not supersede the original, so whichever
// result lands first wins and the loser is dropped by stamp.
func (m *master[T]) prepareEntry(s, worker int, v int32, deadline time.Time) (comm.TaskEntry, bool) {
	// Register first: if the vertex finished while queued for
	// redistribution we must bail out before touching the known-set,
	// or unsent blocks would be recorded as held by the slave.
	attempt, ok, backup := m.register(s, v)
	if !ok {
		return comm.TaskEntry{}, false
	}
	deps := m.graph.Vertex(v).DataPre
	if m.known != nil {
		deps = m.filterKnown(s, deps)
	}
	positions := make([]dag.Pos, len(deps))
	for k, d := range deps {
		positions[k] = m.geom.PosOf(d)
	}
	blocks := m.store.Gather(positions)
	m.ctrs.blocksShipped.Add(int64(len(blocks)))
	payload, err := matrix.EncodeBlocks(m.p.Codec, blocks)
	if err != nil {
		m.finish(fmt.Errorf("core: encoding data region of vertex %d: %w", v, err))
		return comm.TaskEntry{}, false
	}
	if backup {
		m.leases.Add(v, s, attempt, time.Now())
		m.ot.AddConcurrent(v, attempt, deadline)
		m.ctrs.speculated.Add(1)
		m.cfg.Trace.Speculate(worker, v)
	} else {
		m.leases.Grant(v, s, attempt, time.Now())
		m.ot.Add(v, attempt, deadline)
	}
	m.cfg.Trace.TaskStart(worker, v)
	m.ctrs.dispatches.Add(1)
	return comm.TaskEntry{Vertex: v, Attempt: attempt, Payload: payload}, true
}

// register claims an attempt of v for slave s. For an ordinary draw it is
// reg.Register; for a vertex flagged by the speculation pass it issues a
// concurrent backup attempt instead — unless the drawing slave already
// holds a lease on v (it would be backing itself up), in which case the
// flag is dropped and the fault-tolerance loop may re-flag the vertex on
// its next tick.
func (m *master[T]) register(s int, v int32) (attempt int32, ok, backup bool) {
	m.specMu.Lock()
	pending := m.specPending[v]
	delete(m.specPending, v)
	m.specMu.Unlock()
	if !pending {
		a, ok := m.reg.Register(v)
		return a, ok, false
	}
	for _, l := range m.leases.Holders(v) {
		if l.Worker == s {
			return 0, false, false
		}
	}
	a, ok := m.reg.RegisterBackup(v)
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

// dispatch sends vertex v to slave s. It returns false when the vertex
// turned out to be already finished (a redistribution raced its result).
func (m *master[T]) dispatch(s, worker int, v int32) bool {
	entry, ok := m.prepareEntry(s, worker, v, time.Now().Add(m.cfg.TaskTimeout))
	if !ok {
		return false
	}
	m.ctrs.taskBytes.Add(int64(len(entry.Payload)))
	m.cfg.Trace.Dispatch(worker, 1, len(entry.Payload))
	if err := m.tr.Send(s, comm.Message{
		Kind: comm.KindTask, Vertex: entry.Vertex, Attempt: entry.Attempt, Payload: entry.Payload,
	}); err != nil && !errors.Is(err, comm.ErrClosed) {
		m.finish(fmt.Errorf("core: sending task %d to slave %d: %w", v, s, err))
	}
	return true
}

// dispatchBatch ships the drained vertices to slave s in one message. It
// returns false when every vertex turned out to be already finished, so
// the caller draws again without consuming another idle token.
func (m *master[T]) dispatchBatch(s, worker int, ids []int32) bool {
	now := time.Now()
	entries := make([]comm.TaskEntry, 0, len(ids))
	for _, v := range ids {
		// The slave executes batch entries sequentially, so entry i may
		// legitimately wait i task-times before starting: its overtime
		// deadline scales with its position in the batch, or every deep
		// entry of a healthy batch would be spuriously redistributed.
		deadline := now.Add(m.cfg.TaskTimeout * time.Duration(len(entries)+1))
		entry, ok := m.prepareEntry(s, worker, v, deadline)
		if !ok {
			continue
		}
		entries = append(entries, entry)
	}
	if len(entries) == 0 {
		return false
	}
	bytes := 0
	for _, e := range entries {
		bytes += len(e.Payload)
	}
	m.ctrs.taskBytes.Add(int64(bytes))
	m.cfg.Trace.Dispatch(worker, len(entries), bytes)
	var msg comm.Message
	if len(entries) == 1 {
		// A batch of one is the classic protocol message, byte for byte.
		msg = comm.Message{Kind: comm.KindTask, Vertex: entries[0].Vertex, Attempt: entries[0].Attempt, Payload: entries[0].Payload}
	} else {
		m.ctrs.batchMessages.Add(1)
		msg = comm.Message{Kind: comm.KindTaskBatch, Batch: entries}
	}
	if err := m.tr.Send(s, msg); err != nil && !errors.Is(err, comm.ErrClosed) {
		m.finish(fmt.Errorf("core: sending %d-task batch to slave %d: %w", len(entries), s, err))
	}
	return true
}

// recvLoop is the message-handling side of the master worker pool: idle
// announcements re-arm the per-slave senders; results update the register
// table, the store, and the DAG parser (§V.B steps f-h).
func (m *master[T]) recvLoop() {
	for {
		msg, err := m.tr.Recv()
		if err != nil {
			return
		}
		switch msg.Kind {
		case comm.KindIdle:
			m.signalIdle(msg.From)
		case comm.KindResult:
			m.applyResult(msg.From, msg.Vertex, msg.Attempt, msg.Payload)
			// More marks a partial flush of a still-executing batch:
			// re-arming the sender now would over-commit the slave.
			if !msg.More {
				m.signalIdle(msg.From)
			}
		case comm.KindResultBatch:
			for _, e := range msg.Batch {
				m.applyResult(msg.From, e.Vertex, e.Attempt, e.Payload)
			}
			if !msg.More {
				m.signalIdle(msg.From)
			}
		default:
			// A kind the thread-level protocol never sends means a
			// corrupted transport; fail the run rather than dropping
			// frames silently.
			m.finish(fmt.Errorf("core: master received unexpected %v frame from slave %d", msg.Kind, msg.From))
		}
	}
}

func (m *master[T]) signalIdle(s int) {
	if s < 1 || s >= len(m.idle) {
		return
	}
	select {
	case m.idle[s] <- struct{}{}:
	default:
	}
}

// filterKnown drops blocks slave s already holds and marks the remainder
// as held once this dispatch ships them. In cache mode the test runs
// against the slave's content-keyed PeerSet — the same decision keyed by
// content instead of vertex id, routed through the store so the skip
// shows up in the wire-layer metrics. m.known stays updated in both
// modes: the affinity policy scores against it.
func (m *master[T]) filterKnown(s int, deps []int32) []int32 {
	m.knownMu.Lock()
	defer m.knownMu.Unlock()
	out := make([]int32, 0, len(deps))
	for _, d := range deps {
		if m.peers != nil {
			if m.peers[s].Knows(m.resultKey[d]) {
				m.ctrs.blocksSkipped.Add(1)
				m.known[s][d] = true
				continue
			}
			m.peers[s].Note(m.resultKey[d])
			m.known[s][d] = true
			out = append(out, d)
			continue
		}
		if m.known[s][d] {
			m.ctrs.blocksSkipped.Add(1)
			continue
		}
		m.known[s][d] = true
		out = append(out, d)
	}
	return out
}

// blockKey derives vertex v's cross-job cache key: the run's spec digest,
// the block's cell rectangle, and the content keys of its predecessors'
// committed payloads. Only called once every predecessor has committed.
func (m *master[T]) blockKey(v int32) cas.Key {
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
// Only called from the recv loop and the restore replay. The block was
// decoded from a slave's result, a checkpoint record or a cache entry: one
// that covers another region than v's fails the run here.
func (m *master[T]) commit(v int32, payload []byte, b *matrix.Block[T]) error {
	pos := m.geom.PosOf(v)
	if err := matrix.CheckRect(m.geom, pos, b.Rect); err != nil {
		return fmt.Errorf("core: block committed for vertex %d: %w", v, err)
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

// absorbCached drains the cross-job cache across newly computable
// vertices: a hit commits the stored block as if its result had just
// arrived — no lease drawn, no dispatch — and cascades into whatever it
// unlocks. The vertices that missed are returned for normal dispatch.
// Only called from the recv loop and restore, which own parser and store
// mutation.
func (m *master[T]) absorbCached(ids []int32) []int32 {
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
			if blocks, err := matrix.DecodeBlocks(m.p.Codec, payload); err == nil && len(blocks) == 1 {
				b = blocks[0]
			}
		}
		if b == nil {
			// Miss — or a corrupt entry, which must degrade to recompute.
			m.ctrs.cacheMisses.Add(1)
			miss = append(miss, v)
			continue
		}
		m.ctrs.cacheHits.Add(1)
		if err := m.commit(v, payload, b); err != nil {
			m.finish(err)
			return miss
		}
		newly := m.parser.Complete(v)
		m.afterComplete(v)
		work = append(work, newly...)
	}
	return miss
}

// applyResult commits one computed vertex: register-table acceptance,
// store update, checkpoint append, DAG completion. It is the per-vertex
// core of result handling, shared by the single-result and batched paths.
func (m *master[T]) applyResult(from int, v, attempt int32, payload []byte) {
	if !m.reg.Accept(v, attempt) {
		// A late answer for a superseded attempt (§V.B step g): the
		// registration was cancelled on timeout, or a concurrent attempt
		// already won the speculative race, so the result is dropped.
		m.ctrs.staleResults.Add(1)
		return
	}
	m.ot.Remove(v)
	if l, ok := m.leases.Find(v, attempt); ok {
		m.profile.Observe(time.Since(l.Granted))
	}
	m.leases.Release(v)
	m.specMu.Lock()
	if backup, ok := m.backupOf[v]; ok {
		delete(m.backupOf, v)
		delete(m.specPending, v)
		if backup == attempt {
			m.ctrs.specWon.Add(1)
		} else {
			m.ctrs.specWasted.Add(1)
		}
	}
	m.specMu.Unlock()
	blocks, err := matrix.DecodeBlocks(m.p.Codec, payload)
	if err != nil || len(blocks) != 1 {
		m.finish(fmt.Errorf("core: bad result payload for vertex %d from slave %d: %v", v, from, err))
		return
	}
	if err := m.commit(v, payload, blocks[0]); err != nil {
		m.finish(err)
		return
	}
	if m.known != nil && from >= 1 && from < len(m.known) {
		// The computing slave now holds its own output block.
		m.knownMu.Lock()
		m.known[from][v] = true
		if m.peers != nil {
			m.peers[from].Note(m.resultKey[v])
		}
		m.knownMu.Unlock()
	}
	m.cfg.Trace.TaskEnd(from-1, v)
	m.ctrs.tasks.Add(1)
	newly := m.parser.Complete(v)
	m.afterComplete(v)
	newly = m.absorbCached(newly)
	m.reportProgress()
	m.disp.Ready(newly...)
	m.cfg.Trace.Ready(m.disp.ReadyCount())
	if m.parser.Finished() {
		m.finish(nil)
	}
}

// reportProgress surfaces completed/total processor-level sub-tasks to
// Config.Progress.
func (m *master[T]) reportProgress() {
	if m.cfg.Progress == nil {
		return
	}
	m.cfg.Progress(m.graph.N-m.parser.Remaining(), m.graph.N)
}

// afterComplete runs the memory-reclamation accounting for a finished
// vertex and updates the peak-storage statistic.
func (m *master[T]) afterComplete(v int32) {
	if n := int64(m.store.Len()); n > m.ctrs.peakBlocks.Load() {
		m.ctrs.peakBlocks.Store(n)
	}
	if m.uses == nil {
		return
	}
	for _, d := range m.graph.Vertex(v).DataPre {
		m.uses[d]--
		if m.uses[d] == 0 {
			m.store.Drop(m.geom.PosOf(d))
			m.ctrs.blocksReclaimed.Add(1)
		}
	}
}

// restore replays a checkpoint stream (Config.Restore): recorded sub-tasks
// are completed in file order — which is a valid execution order, see
// internal/checkpoint — and the remaining computable frontier is handed to
// the dispatcher. Without a restore stream the frontier is simply the DAG
// roots.
func (m *master[T]) restore() error {
	ready := make(map[int32]bool)
	for _, id := range m.parser.InitialReady() {
		ready[id] = true
	}
	if m.cfg.Restore != nil {
		n, err := checkpoint.Replay(m.cfg.Restore, func(v int32, payload []byte) error {
			if int(v) < 0 || int(v) >= len(m.graph.Verts) || !m.graph.Vertex(v).Exists {
				return fmt.Errorf("core: checkpoint names unknown vertex %d", v)
			}
			if !ready[v] {
				return fmt.Errorf("core: checkpoint record for vertex %d out of order", v)
			}
			blocks, err := matrix.DecodeBlocks(m.p.Codec, payload)
			if err != nil || len(blocks) != 1 {
				return fmt.Errorf("core: checkpoint payload for vertex %d: %v", v, err)
			}
			// commit re-records restored work so the new checkpoint
			// stream stays self-contained, and writes it through to the
			// cross-job cache — a restored run warms the cache exactly
			// like a computed one.
			if err := m.commit(v, payload, blocks[0]); err != nil {
				return err
			}
			delete(ready, v)
			for _, nv := range m.parser.Complete(v) {
				ready[nv] = true
			}
			m.afterComplete(v)
			return nil
		})
		if err != nil {
			return err
		}
		m.ctrs.restored.Add(int64(n))
	}
	frontier := make([]int32, 0, len(ready))
	for id := range ready {
		frontier = append(frontier, id)
	}
	frontier = m.absorbCached(frontier)
	m.reportProgress()
	m.disp.Ready(frontier...)
	if m.parser.Finished() {
		m.finish(nil)
	}
	return nil
}

// faultToleranceLoop is the master fault-tolerance thread: it expires
// overdue sub-tasks, cancels their registration and redistributes them
// (Fig. 10). When enabled it also runs the straggler-mitigation passes:
// flagging overlong attempts for speculative backups and rebalancing
// queued-but-undispatched backlog toward starved slaves. Neither pass
// applies under PolicyBlockCyclic, whose static ownership leaves no idle
// slave eligible to take another slave's work.
func (m *master[T]) faultToleranceLoop() {
	ticker := time.NewTicker(m.cfg.CheckInterval)
	defer ticker.Stop()
	mitigate := m.cfg.Policy != PolicyBlockCyclic
	// timeouts counts overtime expiries per vertex: the MaxAttempts guard
	// for poisoned tasks. Speculative backups bump the register table's
	// attempt stamp without indicting the task, so the stamp is no longer
	// the right measure.
	timeouts := make(map[int32]int)
	for {
		select {
		case <-m.done:
			return
		case now := <-ticker.C:
			for _, e := range m.ot.ExpireBefore(now) {
				m.leases.ReleaseAttempt(e.ID, e.Attempt)
				m.noteAttemptGone(e.ID, e.Attempt)
				timeouts[e.ID]++
				if timeouts[e.ID] >= m.cfg.MaxAttempts {
					m.finish(fmt.Errorf("core: sub-task %d timed out %d times (MaxAttempts); giving up", e.ID, timeouts[e.ID]))
					return
				}
				// Requeue only when no concurrent attempt still covers the
				// vertex: if one side of a speculative race expired, the
				// other still runs.
				if m.reg.CancelAttempt(e.ID, e.Attempt) == 0 {
					m.ctrs.redistributions.Add(1)
					m.disp.Requeue(e.ID)
				}
			}
			if m.cfg.Speculate && mitigate {
				m.maybeSpeculate()
			}
			if m.cfg.Steal && mitigate {
				m.maybeSteal()
			}
			if m.tuner != nil {
				m.tuneTick()
			}
		}
	}
}

// batchCap is the dispatch batch bound in effect right now: the
// controller's recommendation under Auto, the configured constant
// otherwise. Lock-free — senders read it on every draw.
func (m *master[T]) batchCap() int {
	if m.tuner != nil {
		return m.tuner.BatchCap()
	}
	return m.cfg.Batch
}

// specParams are the speculation thresholds in effect right now.
func (m *master[T]) specParams() (quantile, multiplier float64) {
	if m.tuner != nil {
		return m.tuner.SpecParams()
	}
	return specQuantile, specMultiplier
}

// tuneTick feeds the controller one observation of the run's counters
// and profile; recommendation changes land in the trace. Called from
// the fault-tolerance loop only.
func (m *master[T]) tuneTick() {
	for s := 1; s <= m.cfg.Slaves; s++ {
		if m.waiting[s].Load() && m.leases.Load(s) == 0 {
			m.hungers++
		}
	}
	sample := tune.Sample{
		Dispatches: m.ctrs.dispatches.Load(),
		TaskBytes:  m.ctrs.taskBytes.Load(),
		Hungers:    m.hungers,
		Steals:     m.ctrs.steals.Load(),
		SpecWon:    m.ctrs.specWon.Load(),
		SpecWasted: m.ctrs.specWasted.Load(),
	}
	if n := m.profile.Samples(); n > 0 {
		p50, _ := m.profile.Quantile(0.5)
		p95, _ := m.profile.Quantile(0.95)
		sample.ProfileP50, sample.ProfileP95, sample.ProfileSamples = p50, p95, n
	}
	if d := m.tuner.Tick(sample); d.Changed {
		m.cfg.Trace.Tune(d.BatchCap, d.Reason)
	}
}

// noteAttemptGone records the speculation-accounting consequence of one
// attempt of v dying (overtime expiry or a steal): a dead backup was
// wasted; a dead original turns its backup into the sole attempt, no
// longer a race to classify.
func (m *master[T]) noteAttemptGone(v, attempt int32) {
	m.specMu.Lock()
	if backup, ok := m.backupOf[v]; ok {
		delete(m.backupOf, v)
		if backup == attempt {
			m.ctrs.specWasted.Add(1)
		}
	}
	m.specMu.Unlock()
}

// maybeSpeculate flags in-flight attempts whose age exceeds the runtime
// profile's threshold for backup dispatch. Flagged vertices are pushed
// onto the ready stack; a starved sender draws them and register() turns
// the draw into a concurrent backup attempt. Speculation only fires when
// the ready queue is empty — while real work is queued, idle capacity
// should take that first.
func (m *master[T]) maybeSpeculate() {
	if m.disp.ReadyCount() > 0 {
		return
	}
	q, mult := m.specParams()
	threshold, ok := m.profile.Threshold(q, mult, m.cfg.CheckInterval, specMinSamples)
	if !ok {
		return // cold profile: not enough completions to judge stragglers
	}
	// At most one new backup per slave per tick keeps a burst of
	// stragglers from flooding the queue with speculative work.
	budget := m.cfg.Slaves
	var flagged []int32
	for _, l := range m.leases.OlderThan(time.Now().Add(-threshold)) {
		if budget == 0 {
			break
		}
		if m.reg.LiveAttempts(l.Vertex) != 1 {
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

// maybeSteal rebalances queued-but-undispatched backlog toward a starved
// slave: one whose sender is blocked in the dispatcher while it holds no
// leases. The tail of the most loaded slave's lease backlog — batch
// entries it has not reached yet — is revoked, cancelled and requeued,
// where the starved sender picks it up. The lease/attempt machinery makes
// the hand-off exact: the victim's later results for stolen entries carry
// retired stamps and are dropped as stale.
func (m *master[T]) maybeSteal() {
	if m.disp.ReadyCount() > 0 {
		// There is queued work already; the starved sender will draw it
		// without help.
		return
	}
	for s := 1; s <= m.cfg.Slaves; s++ {
		if !m.waiting[s].Load() || m.leases.Load(s) > 0 {
			continue
		}
		// Victim: the slave with the deepest backlog, at least two leases
		// deep (the head entry is the one it is executing right now).
		victim, deepest := 0, 1
		for w, n := range m.leases.Loads() {
			if w != s && n > deepest {
				victim, deepest = w, n
			}
		}
		if victim == 0 {
			return
		}
		backlog := m.leases.WorkerLeases(victim)
		if len(backlog) < 2 {
			return
		}
		// Steal the newer half of the backlog (tail by grant sequence),
		// leaving the head — and anything involved in a speculative race —
		// with the victim.
		stolen := 0
		for _, l := range backlog[(len(backlog)+1)/2:] {
			if m.reg.LiveAttempts(l.Vertex) != 1 {
				continue
			}
			m.leases.ReleaseAttempt(l.Vertex, l.Attempt)
			m.ot.RemoveAttempt(l.Vertex, l.Attempt)
			if m.reg.CancelAttempt(l.Vertex, l.Attempt) == 0 {
				m.disp.Requeue(l.Vertex)
				stolen++
			}
		}
		if stolen > 0 {
			m.ctrs.steals.Add(int64(stolen))
			m.cfg.Trace.Steal(s-1, stolen)
			m.cfg.Trace.Ready(m.disp.ReadyCount())
			return // at most one steal per tick
		}
	}
}
