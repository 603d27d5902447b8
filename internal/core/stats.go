package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Stats aggregates what happened during a run: the job engine's ledger
// (tasks, dispatches, redistributions, shipping, cache, Elapsed, ...) and
// what the engine cannot see.
type Stats struct {
	engine.Stats
	// SubTasks counts thread-level sub-sub-task executions across all
	// slaves (duplicates included).
	SubTasks int64
	// SubRequeues counts thread-level timeout re-pushes.
	SubRequeues int64
	// WorkerRestarts counts compute-goroutine panic recoveries.
	WorkerRestarts int64
	// Spills and SpillLoads count blocks written to and reloaded from
	// the out-of-core spill store (Config.SpillDir).
	Spills, SpillLoads int64
	// Messages and PayloadBytes are in-process traffic: RunContext's every
	// frame, a job service job's task and result frames (server.RunStats).
	Messages, PayloadBytes int64
}

func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d dispatches=%d redist=%d stale=%d subtasks=%d subrequeue=%d restarts=%d msgs=%d bytes=%d elapsed=%v",
		s.Tasks, s.Dispatches, s.Redistributions, s.StaleResults,
		s.SubTasks, s.SubRequeues, s.WorkerRestarts, s.Messages, s.PayloadBytes, s.Elapsed)
}

// counters accumulates what the job engine's ledger does not: the slaves'
// thread-level counts and the spill store's. job is that ledger (nil in a
// slave-only process), set by runMaster before anything moves.
type counters struct {
	subTasks, subRequeues, workerRestarts atomic.Int64
	spills, spillLoads                    atomic.Int64
	job                                   *engine.Counters
}

// snapshot fills Stats from both ledgers.
func (c *counters) snapshot() Stats {
	s := Stats{
		SubTasks:       c.subTasks.Load(),
		SubRequeues:    c.subRequeues.Load(),
		WorkerRestarts: c.workerRestarts.Load(),
		Spills:         c.spills.Load(),
		SpillLoads:     c.spillLoads.Load(),
	}
	if c.job != nil {
		s.Stats = c.job.Stats()
	}
	return s
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
