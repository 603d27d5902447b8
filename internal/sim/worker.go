package sim

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// simWorker is one simulated fleet member and its core.Link: a speed
// factor, a FIFO of the frames the driver sent it, liveness flags and what
// a worker holds of its jobs (core.Attached: each job's runner and the
// block cache they share). It works through its queue one task at a time;
// service times are the job's cost scaled by the worker's current speed
// and the cluster's jitter draw.
type simWorker struct {
	c      *Cluster
	member int
	alive  bool
	// partitioned workers keep computing but stop heartbeating and
	// their results are dropped (an unreachable peer, not a dead one).
	partitioned bool
	// declaredDead is the master's view: the driver closed the link, on a
	// crash (KillAt) or the membership sweep, and revoked its leases.
	declaredDead bool
	speed        float64
	queue        []comm.Message // single tasks and attach/detach frames
	cur          *comm.Message  // the task computing now
	// gen invalidates the pending completion event when the worker's
	// in-flight work disappears (crash); started, a hunger timer armed
	// before the latest task start.
	gen, started int
	held         *core.Attached[int32]
	// attached is the protocol-order checker's view of each job on the
	// link: true from its JobSpec, false from its JobEnd.
	attached map[int32]bool
}

// Send checks a frame of the driver against the protocol order a real
// worker relies on — a job's spec before its first task, nothing of a job
// after its JobEnd, nothing after the revocation that closed the link —
// then queues it, worked at once if the worker is free. It never calls the
// driver (which holds attachMu) and queues no idle token (detach walks the
// driver's members in map order).
func (w *simWorker) Send(msg comm.Message) error {
	att, seen := w.attached[msg.Job]
	bad := ""
	switch msg.Kind {
	case comm.KindJobSpec, comm.KindJobEnd:
		if msg.Kind == comm.KindJobSpec && seen && !att {
			bad = "attaches a job after its JobEnd"
		}
		w.attached[msg.Job] = msg.Kind == comm.KindJobSpec
	case comm.KindTask, comm.KindTaskBatch:
		if !att {
			bad = "falls outside its job's JobSpec … JobEnd"
		}
	case comm.KindHeartbeat: // the echo of a beat
		return nil
	default:
		bad = "is one no master sends a worker"
	}
	if w.declaredDead {
		bad = "follows the revocation that closed the link"
	}
	if bad != "" {
		w.c.violate(fmt.Errorf("worker %d: a %v frame of job %d %s", w.member, msg.Kind, msg.Job, bad))
		return nil
	}
	if msg.Kind != comm.KindTaskBatch {
		w.queue = append(w.queue, msg)
	}
	for _, e := range msg.Batch {
		w.queue = append(w.queue, comm.Message{Kind: comm.KindTask, Job: msg.Job, Vertex: e.Vertex, Attempt: e.Attempt, Payload: e.Payload})
	}
	w.c.advance(w)
	return nil
}

// Close is the driver revoking the worker. It keeps computing until killed.
func (w *simWorker) Close() error {
	w.declaredDead = true
	return nil
}

// ready reports whether the worker can accept a dispatch right now.
func (w *simWorker) ready() bool {
	return w.alive && !w.partitioned && !w.declaredDead && w.cur == nil && len(w.queue) == 0
}

// advance works w's queue while w is free: attach and detach frames apply,
// a task of a finished job is run unanswered (the JobEnd behind it is taken
// lazily), and the first task of a running job starts, its completion
// scheduled after its service time.
func (c *Cluster) advance(w *simWorker) {
	for w.cur == nil && len(w.queue) > 0 {
		msg := w.queue[0]
		w.queue = w.queue[1:]
		switch {
		case msg.Kind != comm.KindTask:
			if err := w.held.Apply(msg, c.attach); err != nil {
				c.violate(err)
			}
		case c.jobs[msg.Job-1].job.Finished():
			// Decoded all the same: a keyed task's whole blocks land in the
			// worker's cache, where the master's known-set counts them.
			c.run(w, msg)
		default:
			w.cur = &msg
			w.started++
			gen := w.gen
			c.after(c.serviceTime(msg, w), func() { c.complete(w, gen) })
		}
	}
}

// serviceTime draws the virtual execution time of one task: the job's
// nominal cost (plus the block-area term when CostPerCell is set),
// scaled by the worker's current speed factor and the cluster's jitter.
// The RNG is consumed in event order, so the draw sequence — and with
// it the whole schedule — is a function of the seed.
func (c *Cluster) serviceTime(task comm.Message, w *simWorker) time.Duration {
	jb := c.jobs[task.Job-1]
	cost := float64(jb.spec.Cost)
	if jb.spec.CostPerCell > 0 {
		geom := jb.job.Engine.Graph().Geom
		r := geom.Rect(geom.PosOf(task.Vertex))
		cost += float64(jb.spec.CostPerCell) * float64(r.Rows*r.Cols)
	}
	d := cost * w.speed
	if c.opts.Jitter > 0 {
		d *= 1 + c.opts.Jitter*(2*c.rng.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// complete fires when the worker's current task finishes: its runner
// computes it now, on the region the frame carried, and the result goes to
// the driver unless the worker is cut off or the job is over. A swept but
// healed worker still delivers, refused in attempt arbitration; a stale
// generation means the worker crashed and the work never happened.
func (c *Cluster) complete(w *simWorker, gen int) {
	if w.gen != gen || w.cur == nil {
		return
	}
	task := *w.cur
	w.cur = nil
	if out, ok := c.run(w, task); ok && w.alive && !w.partitioned && !c.jobs[task.Job-1].job.Finished() {
		c.d.Deliver(w.member, comm.Message{Kind: comm.KindResult, Job: task.Job, Vertex: task.Vertex, Attempt: task.Attempt, Payload: out})
	}
	c.advance(w)
	c.noteIdleIfFree(w)
	c.dispatchAll()
	if w.cur == nil {
		c.armHunger(w)
	}
}

// run computes one task through its job's runner, as a worker's loop
// would; a task the worker cannot run is a protocol violation.
func (c *Cluster) run(w *simWorker, task comm.Message) ([]byte, bool) {
	r := w.held.Runner(task.Job)
	if r == nil {
		c.violate(fmt.Errorf("worker %d: task of unattached job %d", w.member, task.Job))
		return nil, false
	}
	out, err := r.Run(task.Vertex, task.Payload)
	if err != nil {
		c.violate(fmt.Errorf("worker %d: %w", w.member, err))
	}
	return out, err == nil
}

// attach builds a worker's runner of the job an attach frame names, as a
// fleet worker builds one from the frame's spec.
func (c *Cluster) attach(msg comm.Message) (*core.TaskRunner[int32], error) {
	jb := c.jobs[msg.Job-1]
	return core.NewTaskRunner(jb.spec.Problem, core.Config{ProcPartition: jb.job.Engine.Graph().Geom.Block, Threads: 1})
}

// noteIdleIfFree queues an idle token for w if it can take work.
func (c *Cluster) noteIdleIfFree(w *simWorker) {
	if w.ready() {
		c.idle = append(c.idle, w.member)
	}
}

// dispatchAll hands idle tokens to Driver.Feed in FIFO order while the
// driver finds each one work, discarding stale tokens (dead, partitioned,
// busy workers) on the way. It is called at the end of every event that
// could open work or free a worker.
func (c *Cluster) dispatchAll() {
	for len(c.idle) > 0 {
		m := c.idle[0]
		if c.workers[m-1].ready() && !c.d.Feed(m) {
			return
		}
		c.idle = c.idle[1:]
	}
}

// armHunger starts w's hunger timer as it goes idle, like a fleet worker's
// beacon loop: after HungerAfter without a task it sends a hunger beacon,
// re-armed while the idleness persists. HungerAfter is three quarters of a
// control interval (docs/SIM.md says why). A task start makes the timer
// stale, a partitioned worker's beacon is lost, a dead worker's timer stops.
func (c *Cluster) armHunger(w *simWorker) {
	started := w.started
	c.after(c.opts.CheckInterval*3/4, func() {
		if !w.alive || w.started != started || c.finishedAll() {
			return
		}
		if w.ready() {
			c.d.Deliver(w.member, comm.Message{Kind: comm.KindHunger})
			c.dispatchAll()
		}
		if w.cur == nil {
			c.armHunger(w)
		}
	})
}
