package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// Worker is the slave scheduling loop (Figs. 11-12 of the paper), the one
// every worker runs: announce idleness, receive a processor-level sub-task,
// run it through its job's TaskRunner and return the computed block. A
// fixed rank serves the run's one job from admission; a fleet worker
// attaches jobs as their frames arrive.
type Worker[T any] struct {
	Recv  func() (comm.Message, error) // the link to the master
	Send  func(comm.Message) error
	Batch int // flush bound of a task batch's results (Config.Batch)
	// Before runs before each task executes; its error ends the loop.
	Before func(vertex int32) error
	// Attach, when non-nil, builds the runner of the job a KindJobSpec
	// frame attaches, and KindJobEnd detaches it; without it both frames
	// are unexpected.
	Attach func(msg comm.Message) (*TaskRunner[T], error)
}

// Attached is what a worker — Worker.Serve's, or a simulated one — holds
// of its jobs: each attached job's runner, and the keyed wire format's
// block cache they share, dropped with the last JobEnd as the master
// resets its known-set at the same point of the one ordered link.
type Attached[T any] struct {
	jobs map[int32]*TaskRunner[T]
	seen map[[32]byte]*matrix.Block[T]
}

// NewAttached holds jobs, the runners attached from admission.
func NewAttached[T any](jobs map[int32]*TaskRunner[T]) *Attached[T] {
	a := &Attached[T]{jobs: jobs, seen: make(map[[32]byte]*matrix.Block[T])}
	for _, r := range jobs {
		r.SetBlockCache(a.seen)
	}
	return a
}

// Runner is the runner of job, nil when the job is not attached.
func (a *Attached[T]) Runner(job int32) *TaskRunner[T] { return a.jobs[job] }

// Apply takes an attach (comm.KindJobSpec) or detach (comm.KindJobEnd)
// frame: attach builds the runner of a job not held, and the last detach
// drops the block cache.
func (a *Attached[T]) Apply(msg comm.Message, attach func(comm.Message) (*TaskRunner[T], error)) error {
	if msg.Kind == comm.KindJobEnd {
		if delete(a.jobs, msg.Job); len(a.jobs) == 0 {
			a.seen = make(map[[32]byte]*matrix.Block[T])
		}
		return nil
	}
	if a.jobs[msg.Job] != nil {
		return nil // a re-attach of a job held
	}
	r, err := attach(msg)
	if err == nil {
		r.SetBlockCache(a.seen)
		a.jobs[msg.Job] = r
	}
	return err
}

// Serve runs the loop over jobs, the runners attached from admission, until
// the master sends the end signal (nil) or something fails, for the caller
// to judge: a failed Recv wrapped in errLostMaster, a failed send in
// comm.ErrSend, a Before, runner or protocol error as it is.
func (w Worker[T]) Serve(jobs map[int32]*TaskRunner[T]) error {
	held := NewAttached(jobs)
	if err := w.Send(comm.Message{Kind: comm.KindIdle}); err != nil {
		return fmt.Errorf("%w: %w", comm.ErrSend, err)
	}
	for {
		msg, err := w.Recv()
		if err != nil {
			return fmt.Errorf("%w: %w", errLostMaster, err)
		}
		switch msg.Kind {
		case comm.KindTask, comm.KindTaskBatch:
			r := held.Runner(msg.Job)
			if r == nil {
				// The link is ordered: a task of an unattached job is
				// protocol corruption, not a race.
				return fmt.Errorf("task for unattached job %d", msg.Job)
			}
			err = comm.ServeTasks(msg, w.Batch, func(vertex int32, task []byte) ([]byte, error) {
				if err := w.Before(vertex); err != nil {
					return nil, err
				}
				return r.Run(vertex, task)
			}, w.Send)
		case comm.KindJobSpec, comm.KindJobEnd:
			if w.Attach == nil {
				return fmt.Errorf("received unexpected %v frame", msg.Kind)
			}
			err = held.Apply(msg, w.Attach)
		case comm.KindHeartbeat: // the fleet's echo of a beacon
		case comm.KindEnd:
			return nil
		default:
			// Corruption or version skew: die loudly, so that the master's
			// timeout or revocation reassigns this worker's work.
			err = fmt.Errorf("received unexpected %v frame", msg.Kind)
		}
		if err != nil {
			return err
		}
	}
}

// runSlave is fixed rank tr.Rank()'s worker: the run's one job is job 0,
// and the fault plan's task-level faults are the per-task hook. The run is
// over, not failed, when the link closes, a send fails (the master hung up,
// maybe before this slave said hello) or an injected crash kills the node
// without a word, and the results of its batch not yet flushed with it.
func runSlave[T any](p Problem[T], cfg Config, tr comm.Transport, faults *faultState, ctrs *counters) error {
	rank := tr.Rank()
	err := Worker[T]{
		Recv:  tr.Recv,
		Send:  func(m comm.Message) error { return tr.Send(0, m) },
		Batch: cfg.Batch,
		Before: func(vertex int32) error {
			if faults.crashNow(rank) {
				return errCrashed
			}
			time.Sleep(faults.stallTask(vertex))
			return nil
		},
	}.Serve(map[int32]*TaskRunner[T]{0: newTaskRunner(p, cfg, faults, ctrs)})
	if err == nil || errors.Is(err, errLostMaster) || errors.Is(err, comm.ErrSend) || errors.Is(err, errCrashed) {
		return nil
	}
	return fmt.Errorf("core: slave %d: %w", rank, err)
}

// errCrashed is what an injected node failure (FaultPlan.CrashOnTask)
// ends a slave's task with; errLostMaster, a worker's failed Recv.
var (
	errCrashed    = errors.New("core: injected slave crash")
	errLostMaster = errors.New("lost master")
)

// jitterFactor returns a deterministic multiplier in [1-amp, 1+amp) keyed
// by the processor-level task identity (splitmix64 finalizer). Keying at
// task granularity models content-dependent block cost — real DP blocks
// differ in branch behaviour, cache footprint and node background load —
// which is the variance a static schedule cannot adapt to. Runs remain
// reproducible.
func jitterFactor(proc, sub int32, amp float64) float64 {
	if amp <= 0 {
		return 1
	}
	_ = sub // sub-task share the task's factor; see above
	h := uint64(uint32(proc)) + 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	u := float64(h%(1<<20))/float64(1<<19) - 1 // [-1, 1)
	return 1 + amp*u
}

// computeBlock is the thread-level parallelization of one processor-level
// sub-task: the block's cell region is partitioned again with
// thread_partition_size, the slave DAG Data Driven Model is built over the
// sub-blocks, and a pool of compute goroutines drains it. The slave
// fault-tolerance goroutine watches the slave overtime queue, re-pushing
// overdue sub-sub-tasks; panicking workers are recovered in place (the
// goroutine equivalent of restarting a dead compute thread).
func computeBlock[T any](p Problem[T], cfg Config, rect dag.Rect, inputs []*matrix.Block[T], faults *faultState, procID int32, ctrs *counters) *matrix.Block[T] {
	out := matrix.NewPayloadBlock(p.Codec, rect) // accept's copies are the result's encoding
	pat := p.Kernel.Pattern()
	tgeom := dag.NewGeometry(rect, cfg.ThreadPartition)
	graph := dag.Build(pat, tgeom)
	parser := dag.NewParser(graph)

	// PolicyAffinity degenerates to plain dynamic here: inside one node
	// memory is shared, so locality has nothing to optimize.
	disp := sched.NewDynamic()
	if cfg.Policy == PolicyBlockCyclic {
		disp = sched.NewQueue(sched.NewBlockCyclic(graph, cfg.Threads, cfg.BCWBlockCols))
	}
	disp.Ready(parser.InitialReady()...)

	// Reads of region cells outside the current sub-block resolve against
	// the shared output block (its cells are complete by DAG order);
	// reads outside the region resolve against the shipped input blocks.
	readLayers := append([]*matrix.Block[T]{out}, inputs...)
	// Work units are counted, and the cost model consulted, only when
	// computation weight is emulated; see Config.WorkDelayPerCell.
	emulate := cfg.WorkDelayPerCell > 0
	fill := SubBlockFill(p.Kernel, emulate)

	ot := sched.NewOvertimeQueue()
	done := make(chan struct{})
	var attemptCtr atomic.Int32

	var acceptMu sync.Mutex
	accepted := make([]bool, len(graph.Verts))
	panics := make([]int, len(graph.Verts))
	left := graph.N

	// accept commits a computed sub-block exactly once: the scratch cells
	// are copied into the shared output block, the slave DAG is updated,
	// and newly computable sub-sub-tasks are released. Duplicate
	// executions (after a timeout re-push) are discarded here.
	accept := func(sub int32, scratch *matrix.Block[T]) {
		acceptMu.Lock()
		if accepted[sub] {
			acceptMu.Unlock()
			return
		}
		accepted[sub] = true
		out.CopyFrom(scratch)
		left--
		finished := left == 0
		acceptMu.Unlock()

		ot.Remove(sub)
		disp.Ready(parser.Complete(sub)...)
		if finished {
			close(done)
			disp.Close()
		}
	}

	requeue := func(sub int32) {
		acceptMu.Lock()
		dup := accepted[sub]
		acceptMu.Unlock()
		if !dup {
			disp.Ready(sub)
		}
	}

	// execute runs one sub-sub-task in the scratch block of the calling
	// compute goroutine's view, recovering from kernel panics (worker
	// restart semantics). A sub-sub-task that panics more than
	// MaxAttempts times indicates a deterministic kernel bug, not a
	// transient fault: the panic is re-raised so the defect surfaces
	// instead of looping through recovery forever.
	execute := func(view *matrix.View[T], sub int32) {
		defer func() {
			if r := recover(); r != nil {
				acceptMu.Lock()
				panics[sub]++
				giveUp := panics[sub] >= cfg.MaxAttempts
				acceptMu.Unlock()
				if giveUp {
					panic(fmt.Sprintf("core: sub-task %v panicked %d times (MaxAttempts): %v", SubTaskID{Proc: procID, Sub: sub}, cfg.MaxAttempts, r))
				}
				ctrs.workerRestarts.Add(1)
				requeue(sub)
			}
		}()
		subRect := tgeom.Rect(graph.Vertex(sub).Pos)
		view.Retarget(subRect)
		scratch := view.Out()
		ot.Add(sub, attemptCtr.Add(1), time.Now().Add(cfg.SubTaskTimeout))

		id := SubTaskID{Proc: procID, Sub: sub}
		if faults.panicSubTask(id) {
			panic(fmt.Sprintf("core: injected sub-task panic %v", id))
		}
		if d := faults.stallSubTask(id); d > 0 {
			time.Sleep(d)
		}

		units := fill(view)
		if emulate {
			// Emulated computation weight; see Config.WorkDelayPerCell,
			// Config.WorkJitter and tune.CostModel.
			units *= jitterFactor(procID, sub, cfg.WorkJitter)
			time.Sleep(time.Duration(units * float64(cfg.WorkDelayPerCell)))
		}
		ctrs.subTasks.Add(1)
		accept(sub, scratch)
	}

	for w := 0; w < cfg.Threads; w++ {
		go func(w int) {
			// One scratch block (the size of the largest sub-block) and
			// one view per compute goroutine, re-aimed at each sub-task:
			// accept has copied the scratch cells out, or dropped them,
			// by the time the goroutine draws its next one.
			view := matrix.NewView(matrix.NewBlock[T](tgeom.Rect(dag.Pos{})), readLayers, pat, p.Size, p.Kernel.Boundary)
			for {
				sub, ok := disp.Next(w)
				if !ok {
					return
				}
				execute(view, sub)
			}
		}(w)
	}

	// Slave fault-tolerance thread: watch the slave overtime queue and
	// re-push overdue sub-sub-tasks.
	go func() {
		ticker := time.NewTicker(cfg.CheckInterval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-ticker.C:
				for _, e := range ot.ExpireBefore(now) {
					ctrs.subRequeues.Add(1)
					requeue(e.ID)
				}
			}
		}
	}()

	<-done
	return out
}
