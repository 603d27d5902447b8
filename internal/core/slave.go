package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// Worker is the slave scheduling loop (Figs. 11-12 of the paper), the one
// every member runs, in process or as a worker process: announce idleness,
// receive a processor-level sub-task, run it through its job's TaskRunner
// and return the computed block. Jobs attach as their frames arrive.
type Worker[T any] struct {
	Link  Conn // to the driver; Serve closes it on return
	Batch int  // flush bound of a task batch's results: the pool's Batch
	// Before, when non-nil, runs before each task executes; its error ends
	// the loop.
	Before func(vertex int32) error
	// Attach builds the runner of the job a KindJobSpec frame attaches;
	// KindJobEnd detaches it.
	Attach func(msg comm.Message) (*TaskRunner[T], error)
	// Beat, when positive, is the heartbeat period: its fleet's welcome's.
	Beat time.Duration
}

// Attached is what a worker — Worker.Serve's, or a simulated one — holds
// of its jobs: each attached job's runner, and the keyed wire format's
// block cache they share, dropped with the last JobEnd as the master
// resets its known-set at the same point of the one ordered link. The
// cache names whole blocks shipped by the keys they travel under and keeps
// outputs unnamed until a reference names them (TaskRunner.resolve). Only
// the goroutine that calls Run touches it, so it needs no lock.
type Attached[T any] struct {
	jobs    map[int32]*TaskRunner[T]
	named   map[[32]byte]*matrix.Block[T]
	unnamed map[dag.Rect][]output[T]
}

// NewAttached holds no job yet.
func NewAttached[T any]() *Attached[T] {
	return &Attached[T]{jobs: make(map[int32]*TaskRunner[T]), named: make(map[[32]byte]*matrix.Block[T]), unnamed: make(map[dag.Rect][]output[T])}
}

// Runner is the runner of job, nil when the job is not attached.
func (a *Attached[T]) Runner(job int32) *TaskRunner[T] { return a.jobs[job] }

// Apply takes an attach (comm.KindJobSpec) or detach (comm.KindJobEnd)
// frame: attach builds the runner of a job not held, and the last detach
// drops the block cache.
func (a *Attached[T]) Apply(msg comm.Message, attach func(comm.Message) (*TaskRunner[T], error)) error {
	if msg.Kind == comm.KindJobEnd {
		if delete(a.jobs, msg.Job); len(a.jobs) == 0 {
			a.named, a.unnamed = make(map[[32]byte]*matrix.Block[T]), make(map[dag.Rect][]output[T])
		}
		return nil
	}
	if a.jobs[msg.Job] != nil {
		return nil // a re-attach of a job held
	}
	r, err := attach(msg)
	if err == nil {
		r.held, r.job = a, msg.Job
		a.jobs[msg.Job] = r
	}
	return err
}

// Serve runs the loop, with a beacon goroutine when it has something to
// send, until the driver sends the end signal or closes an in-process link
// (nil), ctx ends (a Leave frame goes out first) or something fails. An
// injected crash (FaultPlan.CrashOnTask) is silent: the member holds its
// link unanswered until the driver dismisses it, so its leases come back by
// timeout.
func (w Worker[T]) Serve(ctx context.Context) error {
	defer w.Link.Close()
	stop := make(chan struct{})
	var beacon sync.WaitGroup
	if w.Beat > 0 || ctx.Done() != nil {
		beacon.Add(1)
		go func() {
			defer beacon.Done()
			w.beacon(ctx, stop)
		}()
	}
	err := w.loop(NewAttached[T]())
	close(stop)
	beacon.Wait()
	if errors.Is(err, errCrashed) {
		for _, e := w.Link.Recv(); e == nil; _, e = w.Link.Recv() {
		}
	}
	return err
}

// beacon runs until stop closes: heartbeats prove liveness and provoke the
// echoes that feed a socket's read-idle bound, and ctx ending sends a
// graceful Leave that closes the link. Hunger is no beacon: the driver
// reads it off the member's empty draw.
func (w Worker[T]) beacon(ctx context.Context, stop <-chan struct{}) {
	var beat <-chan time.Time // nil: never
	if w.Beat > 0 {
		ticker := time.NewTicker(w.Beat)
		defer ticker.Stop()
		beat = ticker.C
	}
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			_ = w.Link.Send(comm.Message{Kind: comm.KindLeave})
			w.Link.Close()
			return
		case <-beat:
		}
		_ = w.Link.Send(comm.Message{Kind: comm.KindHeartbeat}) // a dead link fails the recv loop
	}
}

// loop is the worker loop proper.
func (w Worker[T]) loop(held *Attached[T]) error {
	if err := w.Link.Send(comm.Message{Kind: comm.KindIdle}); err != nil {
		return fmt.Errorf("%w: %w", comm.ErrSend, err)
	}
	for {
		msg, err := w.Link.Recv()
		if errors.Is(err, comm.ErrClosed) {
			return nil // a closed in-process link is a dismissal
		} else if err != nil {
			return fmt.Errorf("lost master: %w", err)
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
				if w.Before != nil {
					if err := w.Before(vertex); err != nil {
						return nil, err
					}
				}
				return r.Run(vertex, task)
			}, w.Link.Send)
		case comm.KindJobSpec, comm.KindJobEnd:
			err = held.Apply(msg, w.Attach)
		case comm.KindHeartbeat: // the driver's echo of a beacon
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

// errCrashed is what an injected node failure (FaultPlan.CrashOnTask) ends
// a member's task with.
var errCrashed = errors.New("core: injected slave crash")

// slaveLevel is a TaskRunner's thread level (Figs. 11-12 of the paper): the
// slave DAG over the sub-blocks of one block on an engine.Attempts, drained
// by Threads compute threads (the caller of Run is thread 0) that all write
// in place into the task's result block, and reset, not rebuilt, per Run.
type slaveLevel[T any] struct {
	r       *TaskRunner[T]
	pat     dag.Pattern
	graph   dag.Graph
	att     engine.Attempts // of the slave DAG, reset per block
	lifo    sched.LIFO
	queue   *sched.Queue
	views   []*matrix.View[T]       // per thread, over the task's result block
	fills   []func(*matrix.View[T]) // per thread
	strips  *matrix.Strips[T]       // the shipped bands, joined
	helpers sync.WaitGroup
	tgeom   dag.Geometry // of the block being computed
	procID  int32

	mu    sync.Mutex // held by accepts and failures, so every push is made under it
	ready []int32    // accept's
}

// computeBlock is the thread level of one processor-level sub-task of r.
// Reads outside the block resolve against the inputs, the shipped bands
// joined into strips; one thread computes the block whole, helpers a
// sub-block each, and every thread writes in place.
func computeBlock[T any](r *TaskRunner[T], rect dag.Rect, inputs []*matrix.Block[T], procID int32) *matrix.Block[T] {
	out := matrix.NewPayloadBlock(r.p.Codec, rect) // the kernel's writes are the result's encoding
	l, helpers := r.level, r.cfg.Threads-1
	if l == nil {
		l = &slaveLevel[T]{r: r, pat: r.p.Kernel.Pattern()}
		l.queue = sched.NewQueue(&l.lifo)
		l.strips = matrix.NewStrips[T](r.geom.Block, r.p.Size)
		for range r.cfg.Threads {
			l.views = append(l.views, matrix.NewView(out, nil, l.pat, r.p.Size, r.p.Kernel.Boundary))
			l.fills = append(l.fills, SubBlockFill(r.p.Kernel))
		}
		r.level = l
	}
	part := r.cfg.ThreadPartition
	if helpers == 0 { // nobody shares the block: it is the one sub-task
		part = dag.Size{Rows: rect.Rows, Cols: rect.Cols}
	}
	l.tgeom, l.procID = dag.NewGeometry(rect, part), procID
	if err := l.graph.Rebuild(l.pat, l.tgeom); err != nil {
		panic(err) // a pattern sound over the block grid (Driver.NewJob) but not over this block's
	}
	// PolicyAffinity degenerates to plain dynamic here: inside one node
	// memory is shared, so locality has nothing to optimize.
	order := sched.Order(&l.lifo) // drained by the Run before
	if r.cfg.Policy == PolicyBlockCyclic {
		order = sched.NewBlockCyclic(&l.graph, r.cfg.Threads, 1)
	}
	l.queue.Reset(order)
	in := l.strips.Join(inputs, rect)
	for _, v := range l.views {
		v.SetOutput(out)
		v.SetInputs(in)
	}
	l.ready = l.att.Reset(&l.graph, r.cfg.MaxAttempts, l.ready[:0])
	l.queue.Ready(l.ready...)

	l.helpers.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go l.drain(w)
	}
	l.drain(0)
	l.helpers.Wait() // every sub-block is accepted: all leave the closed queue
	return out
}

// drain is compute thread w's loop, until the queue has nothing more for w.
func (l *slaveLevel[T]) drain(w int) {
	for sub, ok := l.queue.Next(w); ok; sub, ok = l.queue.Next(w) {
		l.execute(w, sub)
	}
	if w > 0 {
		l.helpers.Done()
	}
}

// execute runs one attempt of a sub-sub-task in thread w's view, recovering
// from kernel panics (worker restart semantics) up to the MaxAttempts-th of
// one sub-sub-task, which is re-raised: a deterministic kernel bug surfaces.
// A sub-block is queued when it becomes computable and again only once its
// attempt failed, so no two threads ever compute it side by side, and the
// attempt is watched by no deadline: a slow thread is not lost.
func (l *slaveLevel[T]) execute(w int, sub int32) {
	r, view := l.r, l.views[w]
	attempt, _ := l.att.Start(sub, time.Time{}, false)
	defer func() {
		if p := recover(); p != nil {
			l.mu.Lock()
			uncovered, err := l.att.Fail(sub, attempt)
			if uncovered {
				l.queue.Ready(sub)
			}
			l.mu.Unlock()
			if err != nil {
				panic(fmt.Sprintf("core: thread level of task %d: %v: %v", l.procID, err, p))
			}
			r.ctrs.workerRestarts.Add(1)
		}
	}()
	view.Retarget(l.tgeom.Rect(l.graph.Vertex(sub).Pos))
	if id := (SubTaskID{Proc: l.procID, Sub: sub}); r.faults.panicSubTask(id) {
		panic(fmt.Sprintf("core: injected sub-task panic %v", id))
	}
	l.fills[w](view)
	r.ctrs.subTasks.Add(1)
	l.accept(sub, attempt)
}

// accept commits a sub-block its one live attempt computed in the result
// block, and releases what became computable.
func (l *slaveLevel[T]) accept(sub, attempt int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ready, _ = l.att.Accept(l.ready[:0], sub, attempt)
	if l.queue.Ready(l.ready...); l.att.Remaining() == 0 {
		l.queue.Close()
	}
}
