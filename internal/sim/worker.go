package sim

import "time"

// simWorker is one simulated fleet member: a speed factor, a FIFO task
// queue and liveness flags. It executes its queue one entry at a time;
// service times are the job's cost scaled by the worker's current speed
// and the cluster's jitter draw.
type simWorker struct {
	member int
	alive  bool
	// partitioned workers keep computing but stop heartbeating and
	// their results are dropped (an unreachable peer, not a dead one).
	partitioned bool
	// declaredDead is the master's view: set by a crash (KillAt) or by
	// the membership sweep. Leases are revoked exactly once, here.
	declaredDead bool
	speed        float64
	queue        []entry
	cur          *entry
	// gen invalidates the pending completion event when the worker's
	// in-flight work disappears (crash).
	gen int
}

// entry is one dispatched task attempt sitting in a worker's queue: the
// frame the master sent, including the encoded data region the compute
// runs against.
type entry struct {
	jb      *simJob
	vertex  int32
	attempt int32
	payload []byte
}

// dispatchAll feeds every idle worker until no job has eligible work,
// then lets the steal path rescue any still-idle workers. It is called
// at the end of every event that could open work or free a worker.
func (c *Cluster) dispatchAll() {
	c.feedIdle()
	// No job has eligible work but workers sit idle: where a real worker
	// would send a hunger beacon after a wait, the simulator runs the
	// pool's hunger pass at once, one attempt per idle worker per pass,
	// until one finds nothing to steal.
	hungry := len(c.idle)
	for i := 0; i < hungry && len(c.idle) > 0; i++ {
		m := c.idle[0]
		w := c.byMember[m]
		if w == nil || !w.ready() {
			c.idle = c.idle[1:]
			continue
		}
		if !c.pool.Hunger(m) {
			break
		}
		c.feedIdle()
	}
}

// feedIdle pops idle tokens and hands each worker a batch while the
// pool finds one; stale tokens (dead, partitioned, busy workers)
// are discarded on the way.
func (c *Cluster) feedIdle() {
	for len(c.idle) > 0 {
		m := c.idle[0]
		w := c.byMember[m]
		if w == nil || !w.ready() {
			c.idle = c.idle[1:]
			continue
		}
		if !c.tryFeed(w) {
			return
		}
		c.idle = c.idle[1:]
	}
}

// ready reports whether the worker can accept a dispatch right now.
func (w *simWorker) ready() bool {
	return w.alive && !w.partitioned && !w.declaredDead && w.cur == nil && len(w.queue) == 0
}

// tryFeed draws batches for w until one spends its idle token (true) or
// no job is eligible (false) — the fleet's sender loop, where a draw whose
// vertices all turned out finished is followed by another at once.
func (c *Cluster) tryFeed(w *simWorker) bool {
	for {
		id, ids, ok := c.pool.Draw(w.member)
		if !ok {
			return false
		}
		if c.dispatch(w, c.jobs[id-1], ids) {
			return true
		}
	}
}

// dispatch leases the drawn vertices to worker w and enqueues the task
// frames, and reports whether the idle token is spent.
func (c *Cluster) dispatch(w *simWorker, jb *simJob, ids []int32) bool {
	grants, spent := c.pool.Lease(jb.id, w.member, ids, c.now())
	entries := make([]entry, 0, len(grants))
	bytes := 0
	for _, g := range grants {
		payload, err := jb.eng.TaskPayload(g.Vertex, nil)
		if c.settle(jb, err) {
			return true
		}
		bytes += len(payload)
		entries = append(entries, entry{jb: jb, vertex: g.Vertex, attempt: g.Attempt, payload: payload})
	}
	if len(entries) == 0 {
		return spent
	}
	jb.eng.Shipped(w.member, len(entries), bytes)
	w.queue = append(w.queue, entries...)
	c.startNext(w)
	return true
}

// startNext begins the worker's next queued entry, skipping frames of
// retired jobs (the worker would drop them on JobEnd in the real
// protocol). An emptied worker re-enters the idle queue.
func (c *Cluster) startNext(w *simWorker) {
	for w.cur == nil && len(w.queue) > 0 {
		e := w.queue[0]
		w.queue = w.queue[1:]
		if e.jb.done {
			continue
		}
		ec := e
		w.cur = &ec
		gen := w.gen
		c.after(c.serviceTime(&ec, w), func() { c.complete(w, gen) })
	}
	if w.cur == nil {
		c.noteIdleIfFree(w)
	}
}

// serviceTime draws the virtual execution time of one entry: the job's
// nominal cost (plus the block-area term when CostPerCell is set),
// scaled by the worker's current speed factor and the cluster's jitter.
// The RNG is consumed in event order, so the draw sequence — and with
// it the whole schedule — is a function of the seed.
func (c *Cluster) serviceTime(e *entry, w *simWorker) time.Duration {
	cost := float64(e.jb.spec.Cost)
	if e.jb.spec.CostPerCell > 0 {
		geom := e.jb.eng.Graph().Geom
		r := geom.Rect(geom.PosOf(e.vertex))
		cost += float64(e.jb.spec.CostPerCell) * float64(r.Rows*r.Cols)
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

// complete fires when the worker's current entry finishes computing.
// A stale generation means the worker crashed in the meantime and the
// work never happened.
func (c *Cluster) complete(w *simWorker, gen int) {
	if w.gen != gen || w.cur == nil {
		return
	}
	e := w.cur
	w.cur = nil
	if w.alive && !w.partitioned {
		// A declared-dead (swept) but healed worker still delivers: the
		// master refuses the result in attempt arbitration, which is the
		// zombie-result path the register table exists for.
		c.applyResult(w, e)
	}
	c.startNext(w)
	c.dispatchAll()
}

// applyResult delivers one finished entry: the worker's compute — run
// here, at the instant it completes in virtual time, on the data region
// the task frame carried — and the result into the job's engine, which
// refuses it if the attempt was retired meanwhile (fleet.applyResult).
func (c *Cluster) applyResult(w *simWorker, e *entry) {
	jb := e.jb
	if jb.done {
		return
	}
	out, err := jb.runner.Run(e.vertex, e.payload)
	if c.settle(jb, err) {
		return
	}
	ready, accepted, err := jb.eng.Complete(w.member, e.vertex, e.attempt, out, c.now())
	if accepted {
		c.reg.NoteCompleted(w.member)
	}
	if c.settle(jb, err) {
		return
	}
	c.pool.Ready(jb.id, ready)
}

// noteIdleIfFree queues an idle token for w if it can take work.
func (c *Cluster) noteIdleIfFree(w *simWorker) {
	if w.ready() {
		c.idle = append(c.idle, w.member)
	}
}
