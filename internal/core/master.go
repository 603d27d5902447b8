package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// master is the master part of the runtime (Figs. 9-10 of the paper) as a
// driver of the scheduling engine, like the fleet: a one-job engine.Pool
// over fixed ranks. The job holds the master DAG Data Driven Model, the
// sub-task register table, the master overtime queue and the block store;
// the pool holds its computable set behind the draw order Config.Policy
// names and makes every scheduling decision — draw, lease verdict, expiry,
// straggler flag, steal, tuner fold. This type owns what is I/O: a sender
// goroutine per slave node, the receive loop, the delta-shipping wire, and
// the fault-tolerance goroutine that ticks the pool. The engine knows slave
// s as member s-1: the worker index the draw order and the trace use.
type master[T any] struct {
	p   Problem[T]
	cfg Config
	tr  comm.Transport

	eng *engine.Job[T]

	// mu serializes every call into pool, as Fleet.mu does; a sender with
	// nothing to draw waits on cond, waiting[w] set: member w's slave is
	// idle with nothing computable for it — the starvation signal stealing
	// and the tuner (through hungers) react to. closed and err are the
	// finish latch.
	mu      sync.Mutex
	cond    *sync.Cond
	pool    *engine.Pool[T]
	waiting []bool
	hungers int64
	closed  bool
	err     error

	idle []chan struct{} // indexed by slave rank (1..Slaves)

	// known[s] is slave s's known-set (delta shipping; nil without).
	known []*slaveKnown

	done chan struct{} // closed with closed
}

// slaveKnown is one slave's known-set (engine.Known): held[v] records that
// it holds block v whole, because the block was shipped there or the slave
// computed it. Senders, the receive loop and the affinity score all touch it.
// peers, present when the run also has a cache, is the same set by content
// key, issued by the store so that wire-layer hits and misses land in its
// metrics; held stays updated beside it, for the affinity policy.
type slaveKnown struct {
	mu    sync.Mutex
	held  []bool
	peers *cas.PeerSet
}

func (k *slaveKnown) Holds(d int32, key cas.Key) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.peers != nil {
		return k.peers.Knows(key)
	}
	return k.held[d]
}

func (k *slaveKnown) Note(d int32, key cas.Key) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.held[d] = true
	if k.peers != nil {
		k.peers.Note(key)
	}
}

// runJob is the id the pool knows the run's one job by.
const runJob int32 = 1

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
	// BCW is the static baseline: an idle slave may not take another's
	// vertex, so the mitigations stay off, and the tuner that arms them.
	dynamic := cfg.Policy != PolicyBlockCyclic
	m := &master[T]{
		p:   p,
		cfg: cfg,
		tr:  tr,
		pool: engine.NewPool[T](engine.PoolConfig{
			Batch:         cfg.Batch,
			Speculate:     cfg.Speculate && dynamic,
			Steal:         cfg.Steal && dynamic,
			Auto:          cfg.Auto && dynamic,
			CheckInterval: cfg.CheckInterval,
			Trace:         cfg.Trace,
		}),
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
		waiting: make([]bool, cfg.Slaves),
		idle:    make([]chan struct{}, cfg.Slaves+1),
		done:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	ctrs.job = m.eng.Counters()
	for s := 1; s <= cfg.Slaves; s++ {
		m.idle[s] = make(chan struct{}, 4)
	}
	if cfg.DeltaShipping {
		m.known = make([]*slaveKnown, cfg.Slaves+1)
		for s := 1; s <= cfg.Slaves; s++ {
			m.known[s] = &slaveKnown{held: make([]bool, geom.Grid.Cells())}
			if m.eng.Cached() {
				m.known[s].peers = cfg.Cache.NewPeerSet()
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
	// closes m.done and wakes the senders — each then drains with an End
	// signal and the run unwinds.
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

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	return &Result[T]{Store: store}, nil
}

// finish ends the run exactly once, recording err (nil for success).
func (m *master[T]) finish(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.closed, m.err = true, err
		close(m.done)
		m.cond.Broadcast()
	}
}

// senderLoop is one worker thread of the master worker pool: it waits for
// its slave to be idle, draws a batch of computable sub-tasks, leases it
// (arming the overtime watch) and ships the data regions (§V.B steps d-e).
// No sender leaves before the run is over: a vertex that comes back — timed
// out, stolen, held — always has someone to draw it.
func (m *master[T]) senderLoop(s int) {
	defer func() { _ = m.tr.Send(s, comm.Message{Kind: comm.KindEnd}) }()
	worker := s - 1
	for {
		select {
		case <-m.idle[s]:
		case <-m.done:
			return
		}
		for {
			ids, ok := m.nextBatch(worker)
			if !ok {
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

// nextBatch blocks until the pool hands member worker a batch — at most the
// batch cap in effect, which under Auto the tuner moves mid-run; at 1 the
// classic one-task protocol — or the run is over.
func (m *master[T]) nextBatch(worker int) ([]int32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed {
		if _, ids, ok := m.pool.Draw(worker); ok {
			return ids, true
		}
		m.waiting[worker] = true
		m.cond.Wait()
		m.waiting[worker] = false
	}
	return nil, false
}

// dispatch leases the drawn vertices to slave s (member worker of the
// engine) and ships the granted ones in one message, each entry an attempt
// stamp plus the encoded missing part of the vertex's data region. It
// reports whether the slave's idle token is spent (engine.Pool.Lease): not
// when every vertex was gone — finished while queued for redistribution,
// the result having raced the timeout — so the caller draws again at once.
func (m *master[T]) dispatch(s, worker int, ids []int32) bool {
	// Lease before the known-set is touched: for a vertex that is gone no
	// unsent block may be recorded as held by the slave.
	m.mu.Lock()
	grants, spent := m.pool.Lease(runJob, worker, ids, time.Now())
	if len(grants) < len(ids) {
		m.cond.Broadcast() // a held vertex is back in the order, for another slave
	}
	m.mu.Unlock()
	var known engine.Known // nil ships every dependency
	if m.known != nil {
		known = m.known[s]
	}
	entries := make([]comm.TaskEntry, 0, len(grants))
	bytes := 0
	for _, g := range grants {
		payload, err := m.eng.TaskPayload(g.Vertex, known, false)
		if err != nil {
			// The run is over; the caller's next draw finds it closed.
			m.finish(fmt.Errorf("core: encoding data region of vertex %d: %w", g.Vertex, err))
			continue
		}
		entries = append(entries, comm.TaskEntry{Vertex: g.Vertex, Attempt: g.Attempt, Payload: payload})
		bytes += len(payload)
	}
	if len(entries) == 0 {
		return spent
	}
	m.eng.Shipped(worker, len(entries), bytes)
	if err := m.tr.Send(s, comm.TaskMessage(0, entries)); err != nil && !errors.Is(err, comm.ErrClosed) {
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

// affinityScore is PolicyAffinity's score (sched.Affinity): the number of
// blocks of v's data region that slave worker+1 already holds whole, by the
// delta-shipping known-set. The pool's draw calls it with master.mu held;
// the set's lock nests inside.
func (m *master[T]) affinityScore(worker int, v int32) int {
	s := worker + 1
	if s < 1 || s >= len(m.known) {
		return 0
	}
	k := m.known[s]
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, d := range m.eng.Graph().Vertex(v).DataPre {
		if k.held[d] {
			n++
		}
	}
	return n
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
	if from >= 1 && from < len(m.known) {
		// The computing slave now holds its own output block.
		m.known[from].Note(v, m.eng.ResultKey(v))
	}
	if m.eng.Finished() {
		m.finish(nil)
	} else if len(ready) > 0 {
		m.mu.Lock()
		m.pool.Ready(runJob, ready)
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// restore replays a checkpoint stream (Config.Restore) into the engine —
// recorded sub-tasks are committed in file order, which is a valid
// execution order, see internal/checkpoint, and written again to
// Config.Checkpoint so the new stream stays self-contained — and enters the
// job into the pool, the remaining computable frontier (without a restore
// stream, the DAG roots) queued behind the draw order Config.Policy names.
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
	var order sched.Order // nil: the dynamic pool's LIFO stack
	switch m.cfg.Policy {
	case PolicyBlockCyclic:
		order = sched.NewBlockCyclic(m.eng.Graph(), m.cfg.Slaves, m.cfg.BCWBlockCols)
	case PolicyAffinity:
		order = sched.NewAffinity(m.affinityScore)
	}
	m.pool.Add(runJob, m.eng, m.pool.Params(engine.JobParams{Order: order}), frontier, time.Now())
	if m.eng.Finished() {
		m.finish(nil)
	}
	return nil
}

// faultToleranceLoop is the master fault-tolerance thread (Fig. 10): it
// feeds the pool its control ticks.
func (m *master[T]) faultToleranceLoop() {
	ticker := time.NewTicker(m.cfg.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case now := <-ticker.C:
			m.tick(now)
		}
	}
}

// tick is one control tick. A slave whose sender waits in nextBatch while
// it holds no lease is hungry: it is counted for the tuner, the pool ticks —
// overtime expiry and redistribution, straggler flags, the tuner fold — and
// the pool's hunger pass may move a backlog's tail toward one hungry slave.
func (m *master[T]) tick(now time.Time) {
	m.mu.Lock()
	for w, waiting := range m.waiting {
		if waiting && m.eng.Load(w) == 0 {
			m.hungers++
		}
	}
	ended := m.pool.Tick(now, m.cfg.Slaves, m.hungers)
	for w, waiting := range m.waiting {
		if waiting && m.pool.Hunger(w) {
			break // at most one steal per tick
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, end := range ended {
		// Tick names the job in front of the reason; a run has one.
		m.finish(fmt.Errorf("core: %w", errors.Unwrap(end.Err)))
	}
}
