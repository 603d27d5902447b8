package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	Batch int  // flush bound of a task batch's results (Config.Batch)
	// Before, when non-nil, runs before each task executes; its error ends
	// the loop.
	Before func(vertex int32) error
	// Attach builds the runner of the job a KindJobSpec frame attaches;
	// KindJobEnd detaches it.
	Attach func(msg comm.Message) (*TaskRunner[T], error)
	// Beat, when positive, is the heartbeat period; HungerAfter, when
	// positive, the idleness that sends a hunger beacon.
	Beat, HungerAfter time.Duration
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
	start := time.Now()
	var active atomic.Int64 // the last activity, as a time.Duration since start
	noteActivity := func() { active.Store(int64(time.Since(start))) }
	stop := make(chan struct{})
	var beacon sync.WaitGroup
	if w.Beat > 0 || w.HungerAfter > 0 || ctx.Done() != nil {
		beacon.Add(1)
		go func() {
			defer beacon.Done()
			w.beacon(ctx, stop, func() time.Duration { return time.Since(start) - time.Duration(active.Load()) })
		}()
	}
	err := w.loop(NewAttached[T](), noteActivity)
	close(stop)
	beacon.Wait()
	if errors.Is(err, errCrashed) {
		for _, e := w.Link.Recv(); e == nil; _, e = w.Link.Recv() {
		}
	}
	return err
}

// beacon runs until stop closes: heartbeats prove liveness and provoke the
// echoes that feed a socket's read-idle bound, HungerAfter of idleness sends
// a hunger beacon, and ctx ending a graceful Leave that closes the link.
func (w Worker[T]) beacon(ctx context.Context, stop <-chan struct{}, idle func() time.Duration) {
	var beat, hunger <-chan time.Time // nil: never
	if w.Beat > 0 {
		ticker := time.NewTicker(w.Beat)
		defer ticker.Stop()
		beat = ticker.C
	}
	var timer *time.Timer
	if w.HungerAfter > 0 {
		timer = time.NewTimer(w.HungerAfter)
		defer timer.Stop()
		hunger = timer.C
	}
	for {
		beacon := comm.KindHeartbeat
		select {
		case <-stop:
			return
		case <-ctx.Done():
			_ = w.Link.Send(comm.Message{Kind: comm.KindLeave})
			w.Link.Close()
			return
		case <-beat:
		case <-hunger:
			if idle := idle(); idle < w.HungerAfter {
				timer.Reset(w.HungerAfter - idle) // active meanwhile
				continue
			}
			beacon = comm.KindHunger
			timer.Reset(w.HungerAfter)
		}
		_ = w.Link.Send(comm.Message{Kind: beacon}) // a dead link fails the recv loop
	}
}

// loop is the worker loop proper; a task starting and a frame's last answer
// going out are the activity that re-arms the hunger timer.
func (w Worker[T]) loop(held *Attached[T], noteActivity func()) error {
	send := func(m comm.Message) error {
		if !m.More {
			noteActivity() // idleness starts at completion
		}
		return w.Link.Send(m)
	}
	if err := send(comm.Message{Kind: comm.KindIdle}); err != nil {
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
				noteActivity()
				if w.Before != nil {
					if err := w.Before(vertex); err != nil {
						return nil, err
					}
				}
				return r.Run(vertex, task)
			}, send)
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
// by Threads compute threads (the caller of Run is thread 0), and reset, not
// rebuilt, per Run unless a straggler may still hold it (computeBlock).
type slaveLevel[T any] struct {
	r       *TaskRunner[T]
	pat     dag.Pattern
	graph   dag.Graph
	att     engine.Attempts // of the slave DAG, reset per block
	lifo    sched.LIFO
	queue   *sched.Queue
	views   []*matrix.View[T]       // per thread: in place at one thread, else over a scratch block the size of the largest sub-block
	fills   []func(*matrix.View[T]) // per thread
	strips  *matrix.Strips[T]       // the shipped bands, joined
	layers  []*matrix.Block[T]      // the output block, then the inputs
	helpers sync.WaitGroup
	watch   *time.Timer  // the slave fault-tolerance thread, with helpers only
	overdue atomic.Bool  // a sub-block was queued again, overdue
	tgeom   dag.Geometry // of the block being computed
	out     *matrix.Block[T]
	procID  int32

	mu    sync.Mutex // held by accepts, failures and the watch, so every push is made under it
	ready []int32    // accept's
}

// computeBlock is the thread level of one processor-level sub-task of r.
// Reads outside the block resolve against the inputs, the shipped bands
// joined into strips; one thread computes the block whole and in place,
// helpers a sub-block each in a scratch.
func computeBlock[T any](r *TaskRunner[T], rect dag.Rect, inputs []*matrix.Block[T], procID int32) *matrix.Block[T] {
	l, helpers := r.level, r.cfg.Threads-1
	if l == nil {
		l = &slaveLevel[T]{r: r, pat: r.p.Kernel.Pattern()}
		l.queue = sched.NewQueue(&l.lifo)
		l.strips = matrix.NewStrips[T](r.geom.Block, r.p.Size)
		largest := dag.NewGeometry(r.geom.Rect(dag.Pos{}), r.cfg.ThreadPartition).Rect(dag.Pos{})
		for range r.cfg.Threads {
			l.views = append(l.views, matrix.NewView(matrix.NewBlock[T](largest), nil, l.pat, r.p.Size, r.p.Kernel.Boundary))
			l.fills = append(l.fills, SubBlockFill(r.p.Kernel))
		}
		if helpers > 0 {
			l.watch = time.AfterFunc(r.cfg.CheckInterval, l.expire)
		}
		r.level = l
	}
	part := r.cfg.ThreadPartition
	if helpers == 0 { // nobody shares the block: it is the one sub-task
		part = dag.Size{Rows: rect.Rows, Cols: rect.Cols}
	}
	l.tgeom, l.procID = dag.NewGeometry(rect, part), procID
	l.graph.Rebuild(l.pat, l.tgeom)
	// PolicyAffinity degenerates to plain dynamic here: inside one node
	// memory is shared, so locality has nothing to optimize.
	order := sched.Order(&l.lifo) // drained by the Run before
	if r.cfg.Policy == PolicyBlockCyclic {
		order = sched.NewBlockCyclic(&l.graph, r.cfg.Threads, 1)
	}
	l.queue.Reset(order)
	l.out = matrix.NewPayloadBlock(r.p.Codec, rect) // the kernel's writes, or accept's copies, are the result's encoding
	l.layers = append(append(l.layers[:0], l.out), l.strips.Join(inputs, rect)...)
	for _, v := range l.views {
		v.SetInputs(l.layers)
	}
	l.overdue.Store(false)
	l.ready = l.att.Reset(&l.graph, r.cfg.MaxAttempts, l.ready[:0])
	l.queue.Ready(l.ready...)

	if helpers > 0 {
		l.watch.Reset(r.cfg.CheckInterval)
		l.helpers.Add(helpers)
		for w := 1; w <= helpers; w++ {
			go l.drain(w)
		}
	} else { // no watch, so no duplicate: the one thread computes in place
		l.views[0].SetOutput(l.out)
	}
	l.drain(0)
	if helpers > 0 {
		// Every sub-block is accepted. With none overdue each ran once, so
		// no helper is executing one, and all leave the closed queue now.
		l.watch.Stop()
		if l.overdue.Load() {
			r.level = nil
		} else {
			l.helpers.Wait()
		}
	}
	return l.out
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
func (l *slaveLevel[T]) execute(w int, sub int32) {
	r, view := l.r, l.views[w]
	var deadline time.Time // unwatched at one thread
	if l.watch != nil {
		deadline = time.Now().Add(r.cfg.SubTaskTimeout)
	}
	// Queued again while an overdue attempt runs, a sub-block gets a backup
	// beside it; accepted meanwhile, it is refused and not run.
	attempt, ok := l.att.Start(sub, deadline, l.watch != nil && l.att.Live(sub) > 0)
	if !ok {
		return
	}
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
	id := SubTaskID{Proc: l.procID, Sub: sub}
	if r.faults.panicSubTask(id) {
		panic(fmt.Sprintf("core: injected sub-task panic %v", id))
	}
	time.Sleep(r.faults.stallSubTask(id))
	l.fills[w](view)
	r.ctrs.subTasks.Add(1)
	l.accept(view, sub, attempt)
}

// accept commits a computed sub-block if its attempt is live — the first of
// an overdue attempt and its backups to deliver — copying a scratch into the
// output block and releasing what became computable.
func (l *slaveLevel[T]) accept(view *matrix.View[T], sub, attempt int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ready, ok := l.att.Accept(l.ready[:0], sub, attempt)
	if !ok {
		return
	}
	if l.ready = ready; l.watch != nil {
		l.out.CopyFrom(view.Out())
	}
	if l.queue.Ready(l.ready...); l.att.Remaining() == 0 {
		l.queue.Close()
	}
}

// expire is the watch: it queues the overdue sub-sub-tasks again, for a
// backup beside each, and re-arms itself until the block is complete.
func (l *slaveLevel[T]) expire() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.att.Remaining() == 0 {
		return
	}
	overdue := l.att.Overdue(nil, time.Now())
	if len(overdue) > 0 { // a thread may still run what is overdue
		l.overdue.Store(true)
	}
	l.r.ctrs.subRequeues.Add(int64(len(overdue)))
	l.queue.Ready(overdue...)
	l.watch.Reset(l.r.cfg.CheckInterval)
}
