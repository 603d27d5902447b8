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
	out          []byte         // its result, computed as it starts
	ok           bool           // whether it computed
	// gen invalidates the pending completion event when the worker's
	// in-flight work disappears (crash).
	gen  int
	held *core.Attached[int32]
	// attached is the protocol-order checker's view of each job on the
	// link: true from its JobSpec, false from its JobEnd.
	attached map[int32]bool
}

// Send checks a frame of the driver against the protocol order a real
// worker relies on — a job's spec before its first task, nothing of a job
// after its JobEnd, nothing after the revocation that closed the link —
// then queues it, worked at once if the worker is free. It never calls the
// driver (which holds attachMu) and sends no idle frame (detach walks the
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
// lazily), and the first task of a running job starts: computed at once,
// answered after its service time and its two frames' time on the wire.
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
			w.out, w.ok = c.run(w, msg)
			w.cur = &msg
			gen := w.gen
			wire := c.opts.Latency.Delay(len(msg.Payload)) + c.opts.Latency.Delay(len(w.out))
			c.after(c.serviceTime(msg, w)+wire, func() { c.complete(w, gen) })
		}
	}
}

// serviceTime draws the virtual execution time of one task: the job's
// Service of the task's block, or the cluster's nominal Cost, scaled by
// the worker's current speed factor and the cluster's jitter. The RNG is
// consumed in event order, so the draw sequence — and with it the whole
// schedule — is a function of the seed.
func (c *Cluster) serviceTime(task comm.Message, w *simWorker) time.Duration {
	jb, cost := c.jobs[task.Job-1], c.opts.Cost
	if jb.spec.Service != nil {
		geom := jb.job.Engine.Graph().Geom
		cost = jb.spec.Service(geom.Rect(geom.PosOf(task.Vertex)))
	}
	d := float64(cost) * w.speed
	if c.opts.Jitter > 0 {
		d *= 1 + c.opts.Jitter*(2*c.rng.Float64()-1)
	}
	return time.Duration(max(d, 1))
}

// complete fires when the worker's current task finishes: the worker
// starts its next queued task, and the result its runner computed on the
// region the frame carried goes to the driver — saying the worker is idle
// unless it went on to another task (More) — or, when the worker is cut
// off or the job is over, just the idle frame (free). A swept but healed
// worker still delivers, refused in attempt arbitration; a stale
// generation means the worker crashed and the answer never left it.
func (c *Cluster) complete(w *simWorker, gen int) {
	if w.gen != gen || w.cur == nil {
		return
	}
	task, out := *w.cur, w.out
	w.cur, w.out = nil, nil
	c.advance(w)
	if w.ok && w.alive && !w.partitioned && !c.jobs[task.Job-1].job.Finished() {
		c.d.Deliver(w.member, comm.Message{Kind: comm.KindResult, Job: task.Job, Vertex: task.Vertex, Attempt: task.Attempt, Payload: out, More: !w.ready()})
	} else {
		c.free(w)
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

// attach builds a worker's runner of the job an attach frame names, as an
// in-process member does: from the driver's own job (core.Job.Runner).
func (c *Cluster) attach(msg comm.Message) (*core.TaskRunner[int32], error) {
	return c.jobs[msg.Job-1].job.Runner(core.Config{Threads: 1})
}

// free sends the driver w's idle frame if w can take work: what a real
// worker sends when it has no result to carry the news.
func (c *Cluster) free(w *simWorker) {
	if w.ready() {
		c.d.Deliver(w.member, comm.Message{Kind: comm.KindIdle})
	}
}
