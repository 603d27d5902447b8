package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cas"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Policy selects the task-allocation strategy at both parallelization
// levels: one internal/sched draw order each.
type Policy uint8

const (
	// PolicyDynamic is the EasyHPS dynamic worker pool: any idle
	// node/thread takes the next computable sub-task.
	PolicyDynamic Policy = iota
	// PolicyBlockCyclic is the static block-cyclic wavefront baseline
	// (BCW): sub-tasks are pre-assigned block-cyclically by grid column,
	// in runs of one column, and may only run on their owner.
	PolicyBlockCyclic
	// PolicyAffinity is the locality-aware dynamic pool: any idle slave
	// takes a computable sub-task, preferring the one whose data region
	// it already holds the most blocks of. Its job ships against the
	// members' known-sets (the known-sets drive both, Driver.NewJob) and
	// it falls back to plain dynamic scheduling at the thread level, where
	// memory is shared anyway.
	PolicyAffinity
)

func (p Policy) String() string {
	switch p {
	case PolicyDynamic:
		return "dynamic"
	case PolicyBlockCyclic:
		return "bcw"
	case PolicyAffinity:
		return "affinity"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes a deployment of the runtime, mirroring the paper's
// experiment setup: a master rank plus Slaves computing nodes, each
// running Threads compute goroutines, with separate partition sizes for
// the two levels.
type Config struct {
	// Slaves is the number of slave computing nodes.
	Slaves int
	// Threads is the number of compute goroutines per slave (ct in the
	// paper's core accounting).
	Threads int
	// ProcPartition is process_partition_size: the block size of
	// processor-level sub-tasks.
	ProcPartition dag.Size
	// ThreadPartition is thread_partition_size: the block size of
	// thread-level sub-sub-tasks within one processor-level block shared
	// by helpers; at Threads 1 the block is its own one sub-task.
	ThreadPartition dag.Size
	// Policy selects dynamic (EasyHPS), static (BCW) or locality-aware
	// scheduling: the draw order of the master's pool and, at the thread
	// level, of each block's sched.Queue.
	Policy Policy
	// Batch bounds how many computable sub-tasks one dispatch message may
	// carry to a slave. At 1 (the default) the runtime sends the classic
	// one-task-per-message protocol unchanged. Above 1 the master drains
	// up to Batch currently-ready vertices into a single task-batch
	// message — never waiting for the batch to fill, so the DAG frontier
	// cannot stall — and the slave flushes results back in groups of up
	// to Batch. Batching amortizes per-message overhead when blocks are
	// small and the frontier is wide; the fault-tolerance machinery
	// (register table, overtime queue, redistribution) still operates on
	// individual vertices.
	Batch int
	// TaskTimeout is the processor-level fault-detection timeout: a
	// sub-task not finished within it is redistributed.
	TaskTimeout time.Duration
	// CheckInterval is the period of the master's control tick, which
	// expires overdue sub-tasks (TaskTimeout) and speculates; defaults to
	// a quarter of TaskTimeout, at most 2.5 s and at least 1 ms. The thread
	// level has no watch: a compute thread's panic is recovered at once,
	// and a slow one is not lost.
	CheckInterval time.Duration
	// RunTimeout aborts the whole run at the first control tick after it
	// is exceeded (0 disables; the job's engine.JobParams.Timeout). It is
	// a guard for tests and for deployments where every node could die.
	RunTimeout time.Duration
	// MaxAttempts is both levels' one fault rule (engine.Attempts): the
	// MaxAttempts-th expiry of one sub-task aborts the run with an error, the
	// MaxAttempts-th panic of one sub-sub-task surfaces the panic, so that
	// deterministic kernel bugs fail loudly instead of looping forever. A
	// revoked or stolen sub-task never counts.
	MaxAttempts int
	// Speculate enables speculative re-execution: when an in-flight
	// sub-task runs longer than twice the 95th percentile of observed
	// runtimes (tracked in a per-run sched.RuntimeProfile), a backup
	// attempt is dispatched to an idle slave and whichever result
	// arrives first wins; the loser is dropped by attempt stamp. Not
	// applied under PolicyBlockCyclic, whose static ownership leaves no
	// idle slave eligible to run a backup.
	Speculate bool
	// Steal enables idle work stealing: when a slave is parked, starved
	// of computable work, while another slave has a backlog of
	// queued-but-undispatched batch entries, the master cancels the
	// tail of that backlog and requeues it for the starved slave. Not
	// applied under PolicyBlockCyclic.
	Steal bool
	// Auto runs the self-tuning controller (internal/tune) on the
	// fault-tolerance tick: Batch and the speculation thresholds become
	// starting points that adapt to observed dispatch amortization,
	// starvation and speculation outcomes, an unset ProcPartition comes
	// from the cost-model advisor for the Slaves members instead of the
	// n/8 rule (Driver.NewJob), and Speculate and Steal are enabled
	// (engine.PoolConfig.Auto) — auto means the system owns the schedule.
	// Controller decisions land in Trace as "tune" events. Under
	// PolicyBlockCyclic Auto is off, the advisor with it: a static
	// schedule leaves the tuner nothing to own.
	Auto bool
	// ReclaimBlocks enables master-side memory reclamation: a completed
	// block is dropped from the store as soon as every sub-task that
	// reads it has finished. This directly addresses the space-complexity
	// limitation the paper lists as future work. The final Result then
	// contains only blocks that no other block consumed (e.g. the
	// bottom-right corner of a wavefront), so leave it off when the full
	// matrix is needed for traceback.
	ReclaimBlocks bool
	// Cache, when non-nil, is the cross-job content-addressed result
	// store (internal/cas): before dispatching a computable sub-task the
	// master probes it by content key, a hit applying the stored block
	// without drawing a lease, and every completed block is written
	// through. A cached run ships, as a PolicyAffinity run does, a 36-byte
	// reference in place of each block a slave holds (the store's wire
	// layer counts these lookups). Requires CacheKey.
	Cache *cas.Store
	// CacheKey is the content digest of the problem spec (kernel plus
	// inputs, scheduling knobs excluded) that scopes this run's entries
	// in Cache. Empty disables caching even when Cache is set: without a
	// spec identity, per-vertex keys would collide across problems.
	CacheKey string
	// Checkpoint, when non-nil, receives a checkpoint record for every
	// completed processor-level sub-task (see internal/checkpoint).
	Checkpoint io.Writer
	// Restore, when non-nil, is replayed before scheduling: sub-tasks
	// recorded there are restored instead of recomputed, resuming an
	// interrupted run.
	Restore io.Reader
	// Faults optionally injects failures for testing fault tolerance.
	Faults FaultPlan
	// Trace optionally records processor-level scheduling events.
	Trace *trace.Recorder
	// Progress, when non-nil, is called by the master after restore and
	// after every completed processor-level sub-task with the number of
	// completed and total sub-tasks of the run. It runs on the master's
	// receive loop, so it must be fast and must not block.
	Progress func(completed, total int)
}

// withDefaults validates cfg and fills the defaults of everything but the
// partitions: the processor partition is the job's (Driver.NewJob), the
// thread partition its runner's (NewTaskRunner).
func (c Config) withDefaults() (Config, error) {
	if c.Slaves < 1 {
		return c, fmt.Errorf("core: need at least 1 slave, got %d", c.Slaves)
	}
	if c.Threads < 1 {
		return c, fmt.Errorf("core: need at least 1 thread per slave, got %d", c.Threads)
	}
	if c.Batch < 1 {
		c.Batch = engine.DefaultBatch
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = engine.DefaultMaxAttempts
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = engine.DefaultTaskTimeout
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = max(min(c.TaskTimeout/4, 2500*time.Millisecond), time.Millisecond)
	}
	return c, nil
}

// Cores returns the paper's core accounting for this deployment on
// X = Slaves+1 nodes: one processor-level scheduling core per node
// (master plus slave receive loops), one thread-level scheduling core per
// computing node, and Threads compute cores per computing node:
// N + (N-1) + ct*(N-1) with N = Slaves+1.
func (c Config) Cores() int {
	n := c.Slaves + 1
	return n + c.Slaves + c.Threads*c.Slaves
}

// ConfigForCores builds a Config that uses exactly y cores on x nodes in
// the paper's Experiment_X_Y accounting: y-2x+1 compute threads spread
// over x-1 computing nodes. It returns an error when y is too small for
// the architecture (the paper's minimum is y = 3x-2, one compute thread
// per computing node).
func ConfigForCores(x, y int) (Config, error) {
	if x < 2 {
		return Config{}, fmt.Errorf("core: Experiment_X_Y needs at least 2 nodes, got %d", x)
	}
	compute := y - 2*x + 1
	if compute < x-1 {
		return Config{}, fmt.Errorf("core: %d cores on %d nodes leaves %d compute cores for %d computing nodes", y, x, compute, x-1)
	}
	if compute%(x-1) != 0 {
		return Config{}, fmt.Errorf("core: %d compute cores do not divide evenly over %d computing nodes", compute, x-1)
	}
	return Config{Slaves: x - 1, Threads: compute / (x - 1)}, nil
}

// SubTaskID identifies one thread-level sub-sub-task: the processor-level
// vertex it belongs to and the vertex id inside the slave DAG.
type SubTaskID struct {
	Proc int32
	Sub  int32
}

// FaultPlan injects failures for fault-tolerance testing. The zero value
// injects nothing.
type FaultPlan struct {
	// CrashOnTask makes the member with the given id (1-based, in join
	// order) die silently upon receiving its k-th task (1-based): the task
	// and every later dispatch to it are lost, emulating a node failure,
	// and its leases come back by TaskTimeout.
	CrashOnTask map[int]int
	// StallFirstAttempt delays the first execution attempt of a
	// processor-level vertex by the given duration, long enough to trip
	// the master's timeout and force a redistribution; the stalled slave
	// eventually answers with a stale attempt that must be dropped.
	StallFirstAttempt map[int32]time.Duration
	// PanicSubTask makes the first execution of a thread-level
	// sub-sub-task panic, exercising the slave-side worker restart. At
	// Threads 1 a block is sub-task 0, so an entry with Sub > 0 never fires.
	PanicSubTask map[SubTaskID]bool
}

// empty reports whether the plan injects nothing.
func (f FaultPlan) empty() bool {
	return len(f.CrashOnTask) == 0 && len(f.StallFirstAttempt) == 0 && len(f.PanicSubTask) == 0
}
