package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cas"
	"repro/internal/comm"
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
	// (BCW): sub-tasks are pre-assigned block-cyclically by grid column
	// and may only run on their owner.
	PolicyBlockCyclic
	// PolicyAffinity is the locality-aware dynamic pool: any idle slave
	// takes a computable sub-task, preferring the one whose data region
	// it already holds the most blocks of. It implies DeltaShipping
	// (the known-sets drive both) and falls back to plain dynamic
	// scheduling at the thread level, where memory is shared anyway.
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
	// BCWBlockCols is the block-cyclic column run length of the static
	// policy (block_col in the paper); ignored under PolicyDynamic.
	// Zero means 1.
	BCWBlockCols int
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
	// SubTaskTimeout is the thread-level fault-detection timeout. The
	// thread level watches it only with Threads >= 2: a helper re-runs what
	// another thread stalls in, and a lone thread has nobody to hand it to.
	SubTaskTimeout time.Duration
	// CheckInterval is how often the fault-tolerance watches inspect their
	// overtime queues (the thread level's, with Threads >= 2 only);
	// defaults to a quarter of the shorter timeout, at least 1 ms.
	CheckInterval time.Duration
	// RunTimeout aborts the whole run when exceeded (0 disables). It is
	// a guard for tests and for deployments where every node could die.
	RunTimeout time.Duration
	// MaxAttempts bounds how many times one sub-task (or sub-sub-task)
	// may be dispatched: exceeding it aborts the run with an error at
	// the processor level, or surfaces the underlying panic at the
	// thread level, so that deterministic kernel bugs fail loudly
	// instead of looping through fault recovery forever. Default 4.
	MaxAttempts int
	// Speculate enables speculative re-execution: when an in-flight
	// sub-task runs longer than twice the 95th percentile of observed
	// runtimes (tracked in a per-run sched.RuntimeProfile), a backup
	// attempt is dispatched to an idle slave and whichever result
	// arrives first wins; the loser is dropped by attempt stamp. Not
	// applied under PolicyBlockCyclic, whose static ownership leaves no
	// idle slave eligible to run a backup.
	Speculate bool
	// Steal enables idle work stealing: when a slave's sender is
	// starved (no computable work) while another slave has a backlog of
	// queued-but-undispatched batch entries, the master cancels the
	// tail of that backlog and requeues it for the starved slave. Not
	// applied under PolicyBlockCyclic.
	Steal bool
	// Auto runs the self-tuning controller (internal/tune) on the
	// fault-tolerance tick: Batch and the speculation thresholds become
	// starting points that adapt to observed dispatch amortization,
	// starvation and speculation outcomes, an unset ProcPartition comes
	// from the cost-model advisor instead of the n/8 rule, and
	// Speculate and Steal are enabled (engine.PoolConfig.Auto) — auto
	// means the system owns the schedule. Controller decisions land in
	// Trace as "tune" events. Under PolicyBlockCyclic only the advisor
	// applies: a static schedule leaves the tuner nothing to own.
	Auto bool
	// Latency is the emulated interconnect cost of the in-process
	// transport.
	Latency comm.LatencyModel
	// WorkDelayPerCell emulates computation weight: every thread-level
	// sub-sub-task (at Threads 1 every block) sleeps cells*WorkDelayPerCell
	// after its real computation (weighted by the kernel's CostModel when
	// it has one). Because sleeping goroutines overlap perfectly, this lets
	// deployments with more simulated cores than physical cores exhibit
	// the scaling behaviour of a real cluster — the benchmark harness
	// relies on it (see DESIGN.md). Zero disables it.
	WorkDelayPerCell time.Duration
	// WorkJitter adds reproducible per-task variance to the
	// emulated work: the sleep is scaled by a factor drawn
	// deterministically from [1-WorkJitter, 1+WorkJitter]. Real nodes
	// never execute identical work in identical time (OS jitter, cache
	// and NUMA effects); a zero-variance emulation overstates how well
	// static schedules do. Typical value 0.3; zero disables it.
	WorkJitter float64
	// DeltaShipping makes the master track, by content key, which blocks
	// each slave has already received whole or computed, and send a
	// 36-byte reference in place of any of them a sub-task reads. Slaves
	// keep every such block for the duration of the run (blocks are
	// immutable once computed), so repeated row/column reads of the 2D/1D
	// patterns stop being resent. Master and slave each hash every result
	// block once for its key.
	DeltaShipping bool
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
	// through. When DeltaShipping is also on, the store's wire-layer
	// counters see every lookup of the slaves' known-sets. Requires
	// CacheKey.
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

// withDefaults validates cfg against the problem size and fills defaults.
func (c Config) withDefaults(n dag.Size) (Config, error) {
	if !n.Valid() {
		return c, fmt.Errorf("core: invalid problem size %v", n)
	}
	if c.Slaves < 1 {
		return c, fmt.Errorf("core: need at least 1 slave, got %d", c.Slaves)
	}
	if c.Threads < 1 {
		return c, fmt.Errorf("core: need at least 1 thread per slave, got %d", c.Threads)
	}
	if !c.ProcPartition.Valid() {
		// Under Auto, prepare() already consulted the partition advisor
		// (it needs the kernel's cost model, which Config cannot see).
		c.ProcPartition = dag.DefaultPartition(n)
	}
	if !c.ThreadPartition.Valid() {
		c.ThreadPartition = dag.Size{
			Rows: (c.ProcPartition.Rows + 3) / 4,
			Cols: (c.ProcPartition.Cols + 3) / 4,
		}
	}
	c.BCWBlockCols = max(c.BCWBlockCols, 1)
	if c.Batch < 1 {
		c.Batch = engine.DefaultBatch
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = engine.DefaultMaxAttempts
	}
	if c.CacheKey == "" {
		c.Cache = nil // no spec identity, nothing cached (see CacheKey)
	}
	if c.Policy == PolicyAffinity {
		// Affinity scheduling scores against the delta-shipping
		// known-sets; without them every score is zero.
		c.DeltaShipping = true
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = engine.DefaultTaskTimeout
	}
	if c.SubTaskTimeout <= 0 {
		c.SubTaskTimeout = 10 * time.Second
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = max(min(c.TaskTimeout, c.SubTaskTimeout)/4, time.Millisecond)
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
	// CrashOnTask makes a slave rank die silently upon receiving its
	// k-th task (1-based): the task and every later dispatch to that
	// rank are lost, emulating a node failure.
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
	// StallSubTask delays the first execution of a thread-level
	// sub-sub-task, tripping the slave's overtime queue (with helpers;
	// at Threads 1, Sub 0 is the block, and TaskTimeout owns its stall).
	StallSubTask map[SubTaskID]time.Duration
}

// empty reports whether the plan injects nothing.
func (f FaultPlan) empty() bool {
	return len(f.CrashOnTask) == 0 && len(f.StallFirstAttempt) == 0 &&
		len(f.PanicSubTask) == 0 && len(f.StallSubTask) == 0
}
