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
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tune"
)

// master is the master part of the runtime (Figs. 9-10 of the paper) as a
// driver of the job engine. The engine holds the master DAG Data Driven
// Model, the sub-task register table, the master overtime queue and the
// block store; this type owns the master worker pool — one sender goroutine
// per slave node over the dispatcher — the receive loop, the delta-shipping
// wire, and the fault-tolerance goroutine that feeds the engine its ticks.
// The engine knows slave s as member s-1: the worker index the dispatcher
// and the trace use.
type master[T any] struct {
	p   Problem[T]
	cfg Config
	tr  comm.Transport

	eng  *engine.Job[T]
	disp sched.Dispatcher

	idle []chan struct{} // indexed by slave rank (1..Slaves)

	// waiting[s] is set while slave s's sender is blocked in the
	// dispatcher: the slave is idle with nothing computable — the
	// starvation signal the work-stealing path reacts to.
	waiting []atomic.Bool

	// known[s][v] records that slave s holds block v (delta shipping):
	// either it was shipped there or the slave computed it. Guarded by
	// knownMu (senders and the recv loop both touch it). peers[s], present
	// when the run also has a cache, is slave s's known-set generalized to
	// content keys — issued by the store so wire-layer hits and misses
	// land in its metrics.
	knownMu sync.Mutex
	known   [][]bool
	peers   []*cas.PeerSet

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

// runMaster executes the master part over transport tr and returns the
// completed matrix store. cfg must already have defaults applied.
// Cancelling ctx finishes the run with ctx's error.
func runMaster[T any](ctx context.Context, p Problem[T], cfg Config, tr comm.Transport, ctrs *counters) (*Result[T], error) {
	geom := dag.MatrixGeometry(p.Size, cfg.ProcPartition)
	var store matrix.BlockStore[T] = matrix.NewStore[T](geom)
	if cfg.SpillDir != "" {
		ss, err := matrix.NewSpillStore(geom, p.Codec, cfg.SpillDir, cfg.SpillBudget)
		if err != nil {
			return nil, err
		}
		store = ss
	}
	m := &master[T]{
		p:   p,
		cfg: cfg,
		tr:  tr,
		eng: engine.New(p.Kernel.Pattern(), p.Codec, p.Size, cfg.ProcPartition, engine.Config[T]{
			TaskTimeout: cfg.TaskTimeout,
			MaxAttempts: cfg.MaxAttempts,
			Cache:       cfg.Cache,
			CacheKey:    cfg.CacheKey,
			Reclaim:     cfg.ReclaimBlocks,
			Store:       countingStore[T]{store, ctrs},
			Trace:       cfg.Trace,
			OnProgress:  cfg.Progress,
		}),
		idle:    make([]chan struct{}, cfg.Slaves+1),
		waiting: make([]atomic.Bool, cfg.Slaves+1),
		done:    make(chan struct{}),
	}
	ctrs.job = m.eng.Counters()
	if cfg.Auto {
		m.tuner = tune.New(tune.DefaultLimits(), cfg.Batch,
			engine.DefaultSpecQuantile, engine.DefaultSpecMultiplier, engine.DefaultSpecMinSamples)
	}
	switch cfg.Policy {
	case PolicyBlockCyclic:
		m.disp = sched.NewBlockCyclic(m.eng.Graph(), cfg.Slaves, cfg.BCWBlockCols)
	case PolicyAffinity:
		m.disp = newAffinityDispatcher(m.affinityScore)
	default:
		m.disp = sched.NewDynamic()
	}
	for s := 1; s <= cfg.Slaves; s++ {
		m.idle[s] = make(chan struct{}, 4)
	}
	if cfg.DeltaShipping {
		m.known = make([][]bool, cfg.Slaves+1)
		for s := 1; s <= cfg.Slaves; s++ {
			m.known[s] = make([]bool, geom.Grid.Cells())
		}
		if m.eng.Cached() {
			m.peers = make([]*cas.PeerSet, cfg.Slaves+1)
			for s := 1; s <= cfg.Slaves; s++ {
				m.peers[s] = cfg.Cache.NewPeerSet()
			}
		}
	}
	if err := m.restore(); err != nil {
		return nil, err
	}

	if cfg.RunTimeout > 0 {
		timer := time.AfterFunc(cfg.RunTimeout, func() {
			m.finish(fmt.Errorf("core: run exceeded RunTimeout %v with %d sub-tasks remaining", cfg.RunTimeout, m.eng.Remaining()))
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

	if ss, ok := store.(*matrix.SpillStore[T]); ok {
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
	return &Result[T]{Store: store}, nil
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
			// moves it while the run is in flight. At 1 the draw is the
			// classic one-task protocol.
			m.waiting[s].Store(true)
			ids, ok := m.disp.NextBatch(worker, m.tuner.BatchCapOr(m.cfg.Batch))
			m.waiting[s].Store(false)
			if !ok {
				m.sendEnd(s)
				return
			}
			if m.dispatch(s, worker, ids) {
				break
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

// dispatch leases the drained vertices to slave s (member worker of the
// engine) and ships them in one message, each entry an attempt stamp plus
// the encoded missing part of the vertex's data region. It returns false
// when every vertex turned out to be gone — finished while queued for
// redistribution, the result having raced the timeout — so the caller
// draws again without consuming another idle token. A vertex the engine
// holds back — flagged for a backup, and this slave runs its original —
// goes back to the dispatcher for another slave; a draw that was nothing
// but those consumes the idle token, or the sender would pop them again at
// once.
func (m *master[T]) dispatch(s, worker int, ids []int32) bool {
	now := time.Now()
	entries := make([]comm.TaskEntry, 0, len(ids))
	held := false
	for _, v := range ids {
		// Lease first: if the vertex is gone we must bail out before
		// touching the known-set, or unsent blocks would be recorded as
		// held by the slave.
		attempt, out := m.eng.Lease(worker, v, len(entries), now)
		switch out {
		case engine.Held:
			m.disp.Requeue(v)
			held = true
			continue
		case engine.Gone:
			continue
		}
		deps := m.eng.Graph().Vertex(v).DataPre
		if m.known != nil {
			deps = m.filterKnown(s, deps)
		}
		blocks := m.eng.Gather(deps)
		m.eng.Counters().BlocksShipped.Add(int64(len(blocks)))
		payload, err := matrix.EncodeBlocks(m.p.Codec, blocks)
		if err != nil {
			// The run is over; the dispatcher drains under the caller.
			m.finish(fmt.Errorf("core: encoding data region of vertex %d: %w", v, err))
			continue
		}
		entries = append(entries, comm.TaskEntry{Vertex: v, Attempt: attempt, Payload: payload})
	}
	if len(entries) == 0 {
		return held
	}
	bytes := 0
	for _, e := range entries {
		bytes += len(e.Payload)
	}
	m.eng.Shipped(worker, len(entries), bytes)
	var msg comm.Message
	if len(entries) == 1 {
		// A batch of one is the classic protocol message, byte for byte.
		msg = comm.Message{Kind: comm.KindTask, Vertex: entries[0].Vertex, Attempt: entries[0].Attempt, Payload: entries[0].Payload}
	} else {
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
	skipped := &m.eng.Counters().BlocksSkipped
	out := make([]int32, 0, len(deps))
	for _, d := range deps {
		if m.peers != nil {
			if m.peers[s].Knows(m.eng.ResultKey(d)) {
				skipped.Add(1)
				m.known[s][d] = true
				continue
			}
			m.peers[s].Note(m.eng.ResultKey(d))
			m.known[s][d] = true
			out = append(out, d)
			continue
		}
		if m.known[s][d] {
			skipped.Add(1)
			continue
		}
		m.known[s][d] = true
		out = append(out, d)
	}
	return out
}

// applyResult hands one result to the engine and queues what it unlocked
// (§V.B steps f-h). It is the per-vertex core of result handling, shared by
// the single-result and batched paths.
func (m *master[T]) applyResult(from int, v, attempt int32, payload []byte) {
	ready, accepted, err := m.eng.Complete(from-1, v, attempt, payload, time.Now())
	if err != nil {
		m.finish(fmt.Errorf("core: %w", err))
		return
	}
	if !accepted {
		// A late answer for a superseded attempt (§V.B step g).
		return
	}
	if m.known != nil && from >= 1 && from < len(m.known) {
		// The computing slave now holds its own output block.
		m.knownMu.Lock()
		m.known[from][v] = true
		if m.peers != nil {
			m.peers[from].Note(m.eng.ResultKey(v))
		}
		m.knownMu.Unlock()
	}
	m.disp.Ready(ready...)
	m.cfg.Trace.Ready(m.disp.ReadyCount())
	if m.eng.Finished() {
		m.finish(nil)
	}
}

// restore replays a checkpoint stream (Config.Restore) into the engine —
// recorded sub-tasks are committed in file order, which is a valid
// execution order, see internal/checkpoint, and written again to
// Config.Checkpoint so the new stream stays self-contained — and hands the
// remaining computable frontier to the dispatcher. Without a restore
// stream the frontier is the DAG roots.
func (m *master[T]) restore() error {
	if m.cfg.Checkpoint != nil {
		m.eng.SetCheckpoint(checkpoint.NewWriter(m.cfg.Checkpoint))
	}
	if m.cfg.Restore != nil {
		if _, err := checkpoint.Replay(m.cfg.Restore, m.eng.Replay); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	frontier, err := m.eng.Frontier()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	m.disp.Ready(frontier...)
	if m.eng.Finished() {
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
	for {
		select {
		case <-m.done:
			return
		case now := <-ticker.C:
			requeue, err := m.eng.Expire(now)
			if err != nil {
				m.finish(fmt.Errorf("core: %w", err))
				return
			}
			for _, v := range requeue {
				m.disp.Requeue(v)
			}
			if m.cfg.Speculate && mitigate {
				m.flagStragglers(now)
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

// tuneTick feeds the controller one observation of the run's counters
// and profile; recommendation changes land in the trace. Called from
// the fault-tolerance loop only.
func (m *master[T]) tuneTick() {
	for s := 1; s <= m.cfg.Slaves; s++ {
		if m.waiting[s].Load() && m.eng.Load(s-1) == 0 {
			m.hungers++
		}
	}
	sample := m.eng.Sample()
	sample.Hungers = m.hungers
	if d := m.tuner.Tick(sample); d.Changed {
		m.cfg.Trace.Tune(d.BatchCap, d.Reason)
	}
}

// flagStragglers queues in-flight attempts whose age exceeds the runtime
// profile's threshold for a backup dispatch: a starved sender draws one and
// the engine turns the draw into a concurrent backup attempt. Speculation
// only fires when the ready queue is empty — while real work is queued,
// idle capacity should take that first — and flags at most one vertex per
// slave per tick, so a burst of stragglers cannot flood the queue.
func (m *master[T]) flagStragglers(now time.Time) {
	if m.disp.ReadyCount() > 0 {
		return
	}
	// The fleet's default thresholds, or the controller's under Auto: a
	// straggler has run longer than the multiplier times that quantile of
	// the observed runtimes, judged once the profile is warm.
	q, mult := m.tuner.SpecParamsOr(engine.DefaultSpecQuantile, engine.DefaultSpecMultiplier)
	m.disp.Ready(m.eng.FlagStragglers(now, q, mult, m.cfg.CheckInterval, engine.DefaultSpecMinSamples, m.cfg.Slaves)...)
}

// maybeSteal rebalances queued-but-undispatched backlog toward a starved
// slave: one whose sender is blocked in the dispatcher while it holds no
// leases. The engine cancels the tail of the most loaded slave's backlog —
// batch entries it has not reached yet — and the starved sender picks the
// vertices up from the dispatcher.
func (m *master[T]) maybeSteal() {
	if m.disp.ReadyCount() > 0 {
		// There is queued work already; the starved sender will draw it
		// without help.
		return
	}
	for s := 1; s <= m.cfg.Slaves; s++ {
		if !m.waiting[s].Load() || m.eng.Load(s-1) > 0 {
			continue
		}
		victim, depth := m.eng.Deepest(s - 1)
		if depth < 2 {
			return
		}
		stolen := m.eng.StealFrom(victim, s-1)
		if len(stolen) > 0 {
			for _, v := range stolen {
				m.disp.Requeue(v)
			}
			m.cfg.Trace.Ready(m.disp.ReadyCount())
			return // at most one steal per tick
		}
	}
}
