package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// Stats aggregates what happened during a run.
type Stats struct {
	// Tasks is the number of processor-level sub-tasks completed.
	Tasks int64
	// Dispatches counts task messages sent to slaves (>= Tasks when
	// redistributions happen).
	Dispatches int64
	// Redistributions counts processor-level timeout recoveries.
	Redistributions int64
	// StaleResults counts late results dropped by the register table.
	StaleResults int64
	// SubTasks counts thread-level sub-sub-task executions across all
	// slaves (duplicates included).
	SubTasks int64
	// SubRequeues counts thread-level timeout re-pushes.
	SubRequeues int64
	// WorkerRestarts counts compute-goroutine panic recoveries.
	WorkerRestarts int64
	// BlocksReclaimed counts blocks released by memory reclamation
	// (Config.ReclaimBlocks).
	BlocksReclaimed int64
	// PeakBlocks is the maximum number of blocks the master held at
	// once.
	PeakBlocks int64
	// Restored counts sub-tasks recovered from a checkpoint instead of
	// computed.
	Restored int64
	// BlocksShipped counts data-region records sent to slaves — a block, or
	// the region of it the pattern declares the task reads (dag.DataRegion)
	// — and BlocksSkipped dependencies left out because the slave already
	// held the whole block (delta shipping).
	BlocksShipped, BlocksSkipped int64
	// BatchMessages counts multi-vertex task-batch messages sent to
	// slaves (zero when Config.Batch <= 1); Dispatches keeps counting
	// individual vertices, so Dispatches/BatchMessages is the realized
	// mean batch size of the batched portion of the dispatch stream.
	BatchMessages int64
	// Speculated counts backup attempts dispatched (Config.Speculate);
	// SpecWon of those, how many beat the original; SpecWasted, how
	// many lost the race or were cancelled.
	Speculated, SpecWon, SpecWasted int64
	// Steals counts queued-but-undispatched sub-tasks reclaimed from a
	// loaded slave's backlog for a starved one (Config.Steal).
	Steals int64
	// TaskBytes is the total payload bytes of task messages sent to
	// slaves (both per-vertex and batched), before transport framing.
	TaskBytes int64
	// CacheHits counts processor-level sub-tasks served from the
	// cross-job result cache instead of dispatched; CacheMisses counts
	// cache probes that fell through to computation (Config.Cache).
	CacheHits, CacheMisses int64
	// Spills and SpillLoads count blocks written to and reloaded from
	// the out-of-core spill store (Config.SpillDir).
	Spills, SpillLoads int64
	// Messages and PayloadBytes are the transport traffic totals
	// (in-process runs only).
	Messages, PayloadBytes int64
	// Elapsed is the wall-clock makespan of the run.
	Elapsed time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d dispatches=%d redist=%d stale=%d subtasks=%d subrequeue=%d restarts=%d msgs=%d bytes=%d elapsed=%v",
		s.Tasks, s.Dispatches, s.Redistributions, s.StaleResults,
		s.SubTasks, s.SubRequeues, s.WorkerRestarts, s.Messages, s.PayloadBytes, s.Elapsed)
}

// counters accumulates what the job engine's ledger does not: the slaves'
// thread-level counts and the master block store's. job is that ledger
// (nil in a slave-only process), set by runMaster before anything moves.
type counters struct {
	subTasks, subRequeues, workerRestarts atomic.Int64
	blocksReclaimed, peakBlocks           atomic.Int64
	spills, spillLoads                    atomic.Int64
	job                                   *engine.Counters
}

// snapshot fills Stats from both ledgers.
func (c *counters) snapshot() Stats {
	var job engine.Stats
	if c.job != nil {
		job = c.job.Stats()
	}
	return Stats{
		Tasks:           job.Tasks,
		Dispatches:      job.Dispatches,
		Redistributions: job.Redistributions,
		StaleResults:    job.StaleResults,
		SubTasks:        c.subTasks.Load(),
		SubRequeues:     c.subRequeues.Load(),
		WorkerRestarts:  c.workerRestarts.Load(),
		BlocksReclaimed: c.blocksReclaimed.Load(),
		PeakBlocks:      c.peakBlocks.Load(),
		Restored:        job.Restored,
		BlocksShipped:   job.BlocksShipped,
		BlocksSkipped:   job.BlocksSkipped,
		BatchMessages:   job.BatchMessages,
		TaskBytes:       job.TaskBytes,
		Speculated:      job.Speculated,
		SpecWon:         job.SpecWon,
		SpecWasted:      job.SpecWasted,
		Steals:          job.Steals,
		CacheHits:       job.CacheHits,
		CacheMisses:     job.CacheMisses,
		Spills:          c.spills.Load(),
		SpillLoads:      c.spillLoads.Load(),
	}
}

// countingStore is the master's block store as the engine sees it: every
// Put raises the peak-storage statistic and every Drop — the engine drops
// a block only to reclaim it (Config.ReclaimBlocks) — counts one.
type countingStore[T any] struct {
	matrix.BlockStore[T]
	ctrs *counters
}

func (s countingStore[T]) Put(p dag.Pos, b *matrix.Block[T]) {
	s.BlockStore.Put(p, b)
	// One writer: the engine commits from the master's receive side only.
	if n := int64(s.Len()); n > s.ctrs.peakBlocks.Load() {
		s.ctrs.peakBlocks.Store(n)
	}
}

func (s countingStore[T]) Drop(p dag.Pos) {
	s.BlockStore.Drop(p)
	s.ctrs.blocksReclaimed.Add(1)
}

// faultState tracks which injected faults have fired, so that "first
// attempt" and "once" semantics hold across the whole in-process cluster.
type faultState struct {
	plan FaultPlan

	mu       sync.Mutex
	received map[int]int // slave rank -> tasks received
	fired    map[string]bool
}

func newFaultState(plan FaultPlan) *faultState {
	if plan.empty() {
		return nil
	}
	return &faultState{
		plan:     plan,
		received: make(map[int]int),
		fired:    make(map[string]bool),
	}
}

// crashNow reports whether the slave with the given rank should die upon
// this task reception.
func (f *faultState) crashNow(rank int) bool {
	if f == nil || len(f.plan.CrashOnTask) == 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.received[rank]++
	k, ok := f.plan.CrashOnTask[rank]
	return ok && f.received[rank] == k
}

// once returns true the first time key is seen.
func (f *faultState) once(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fired[key] {
		return false
	}
	f.fired[key] = true
	return true
}

// stallTask returns the injected delay for a processor-level vertex, once.
func (f *faultState) stallTask(v int32) time.Duration {
	if f == nil {
		return 0
	}
	d, ok := f.plan.StallFirstAttempt[v]
	if !ok || !f.once(fmt.Sprintf("stall-task-%d", v)) {
		return 0
	}
	return d
}

// panicSubTask reports whether this sub-sub-task execution should panic,
// once.
func (f *faultState) panicSubTask(id SubTaskID) bool {
	if f == nil || !f.plan.PanicSubTask[id] {
		return false
	}
	return f.once(fmt.Sprintf("panic-sub-%d-%d", id.Proc, id.Sub))
}

// stallSubTask returns the injected delay for a sub-sub-task, once.
func (f *faultState) stallSubTask(id SubTaskID) time.Duration {
	if f == nil {
		return 0
	}
	d, ok := f.plan.StallSubTask[id]
	if !ok || !f.once(fmt.Sprintf("stall-sub-%d-%d", id.Proc, id.Sub)) {
		return 0
	}
	return d
}
