package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// runSlave executes the slave part (Figs. 11-12 of the paper) over
// transport tr: announce idleness, receive a processor-level sub-task,
// re-partition it with thread_partition_size into a slave DAG, execute the
// sub-sub-tasks on the slave worker pool, and return the computed block.
// It returns when the master sends the end signal or the transport closes.
func runSlave[T any](p Problem[T], cfg Config, tr comm.Transport, faults *faultState, ctrs *counters) error {
	geom := dag.MatrixGeometry(p.Size, cfg.ProcPartition)
	rank := tr.Rank()
	// cache holds every whole block this slave has received or computed
	// when delta shipping is enabled; blocks are immutable once complete,
	// so the cache never goes stale within a run. A shipped region serves
	// its own task only (the master sends it again), or a view's scan of
	// its inputs would grow by three entries a vertex.
	var cache []*matrix.Block[T]
	// run is one sub-task's trip through the slave: fault hooks, decode,
	// compute, encode.
	run := func(vertex int32, task []byte) ([]byte, error) {
		if faults.crashNow(rank) {
			return nil, errCrashed
		}
		if d := faults.stallTask(vertex); d > 0 {
			time.Sleep(d)
		}
		inputs, err := matrix.DecodeBlocks(p.Codec, task)
		if err != nil {
			return nil, fmt.Errorf("core: slave %d decoding task %d: %w", rank, vertex, err)
		}
		if cfg.DeltaShipping {
			cache = append(cache, inputs...)
			inputs = cache
		}
		out := computeBlock(p, cfg, geom.Rect(geom.PosOf(vertex)), inputs, faults, vertex, ctrs)
		if cfg.DeltaShipping {
			cache = append(slices.DeleteFunc(cache, func(b *matrix.Block[T]) bool {
				return !geom.IsBlock(b.Rect) // a region
			}), out)
		}
		result, err := matrix.EncodeBlocks(p.Codec, []*matrix.Block[T]{out})
		if err != nil {
			return nil, fmt.Errorf("core: slave %d encoding result %d: %w", rank, vertex, err)
		}
		return result, nil
	}
	send := func(m comm.Message) error { return tr.Send(0, m) }
	if err := send(comm.Message{Kind: comm.KindIdle}); err != nil {
		// The master has already hung up: the other slaves finished a
		// small job before this one said hello. The run is over.
		return nil
	}
	for {
		msg, err := tr.Recv()
		if err != nil {
			return nil // transport closed: the run is over
		}
		switch msg.Kind {
		case comm.KindEnd:
			return nil
		default:
			// The master only ever sends tasks, batches and End on this
			// transport; anything else is corruption. Die loudly so the
			// timeout path reassigns this slave's work.
			return fmt.Errorf("core: slave %d received unexpected %v frame", rank, msg.Kind)
		case comm.KindTask, comm.KindTaskBatch:
			err := comm.ServeTasks(msg, cfg.Batch, run, send)
			if errors.Is(err, comm.ErrSend) || errors.Is(err, errCrashed) {
				// The master hung up (the run is over), or an injected
				// node failure: it dies without a word, and the results
				// of its batch not yet flushed die with it.
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
}

// errCrashed is what an injected node failure (FaultPlan.CrashOnTask)
// ends a slave's task with.
var errCrashed = errors.New("core: injected slave crash")

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
			disp.Requeue(sub)
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
