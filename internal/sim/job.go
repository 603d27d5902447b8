package sim

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tune"
)

// JobSpec describes one DAG submitted to the simulated cluster. Zero
// values inherit the cluster Options' defaults, mirroring
// fleet.JobRequest.
type JobSpec struct {
	// Name labels the job in traces and errors.
	Name string
	// Problem is the DP application (kernel, codec, size).
	Problem core.Problem[int32]
	// Proc is the processor-level partition; zero applies the same
	// default rule as the fleet (an ~8x8 block grid).
	Proc dag.Size
	// Weight is the fair-share weight (default 1).
	Weight float64
	// Priority is the priority class (higher dispatches first).
	Priority int
	// Quota caps in-flight leased attempts (0 = unlimited).
	Quota int
	// MaxAttempts and TaskTimeout override the cluster defaults.
	MaxAttempts int
	TaskTimeout time.Duration
	// Deadline bounds the job's total runtime from submission; past it
	// the job fails at the next control tick (fleet.JobRequest.Timeout).
	// Zero means no deadline.
	Deadline time.Duration
	// Cost overrides the cluster's nominal per-vertex service time.
	Cost time.Duration
	// CostPerCell, when set, adds CostPerCell x (block cell count) to
	// each vertex's service time, so virtual compute scales with the
	// partition the way real kernels do: finer blocks buy parallelism
	// with per-task overhead (Cost) instead of conjuring work away.
	// Zero keeps the flat per-vertex model of the older scenarios.
	CostPerCell time.Duration
	// CacheKey scopes the job's entries in the cluster's cross-job
	// result store; empty disables caching for this job.
	CacheKey string
}

// Job is the caller's handle on one submitted job; its accessors are
// valid after Cluster.Run returns.
type Job struct {
	jb *simJob
}

// Err returns the job's terminal error (nil on success).
func (j *Job) Err() error { return j.jb.err }

// Stats returns the job's scheduling counters.
func (j *Job) Stats() cluster.Stats {
	if j.jb.eng == nil {
		return cluster.Stats{} // never activated
	}
	s := j.jb.eng.Counters().Stats()
	s.Leaked = int64(j.jb.leaked)
	s.Elapsed = j.jb.elapsed
	return s
}

// Events returns the job's virtual-time scheduling trace.
func (j *Job) Events() []trace.Event { return j.jb.tr.Events() }

// Summary aggregates the job's trace.
func (j *Job) Summary() trace.Summary { return j.jb.tr.Summarize() }

// Makespan is the job's virtual submission-to-finish time.
func (j *Job) Makespan() time.Duration { return j.jb.elapsed }

// Served is the job's normalized fair-share service (dispatched/weight).
func (j *Job) Served() float64 { return j.jb.served }

// Result assembles the job's computed DP matrix; nil until the job
// succeeded.
func (j *Job) Result() [][]int32 {
	if j.jb.err != nil || !j.jb.done {
		return nil
	}
	return j.jb.eng.Store().Assemble()
}

// simJob is the master-side state of one job: the job engine the fleet
// runs (built at activation, so its trace starts at the submission
// instant), beside what the fleet itself keeps per job — the ready stack
// and the fair-share account — and the simulated worker's compute.
type simJob struct {
	id     int32
	spec   JobSpec
	runner *core.TaskRunner[int32]
	eng    *engine.Job[int32]
	tr     *trace.Recorder

	ready  []int32
	served float64

	active  bool
	start   time.Time
	done    bool
	err     error
	elapsed time.Duration
	leaked  int
}

func (c *Cluster) newJob(spec JobSpec) (*simJob, error) {
	p := spec.Problem
	if p.Kernel == nil || p.Codec == nil {
		return nil, fmt.Errorf("sim: job %q needs a kernel and a codec", spec.Name)
	}
	if !p.Size.Valid() {
		return nil, fmt.Errorf("sim: job %q has invalid size %v", spec.Name, p.Size)
	}
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	if spec.MaxAttempts <= 0 {
		spec.MaxAttempts = c.opts.MaxAttempts
	}
	if spec.TaskTimeout <= 0 {
		spec.TaskTimeout = c.opts.TaskTimeout
	}
	if spec.Cost <= 0 {
		spec.Cost = c.opts.Cost
	}
	if !spec.Proc.Valid() {
		if c.opts.Auto {
			cm, _ := p.Kernel.(tune.CostModel)
			spec.Proc = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, len(c.workers), cm)
		} else {
			spec.Proc = dag.Size{Rows: (p.Size.Rows + 7) / 8, Cols: (p.Size.Cols + 7) / 8}
		}
	}
	runner, err := core.NewTaskRunner(p, core.Config{ProcPartition: spec.Proc, Threads: 1})
	if err != nil {
		return nil, fmt.Errorf("sim: job %q: %w", spec.Name, err)
	}
	return &simJob{id: int32(len(c.jobs) + 1), spec: spec, runner: runner}, nil
}

// activate starts the job at its scripted submission instant: the trace
// recorder's origin is pinned here, the engine probes the initial frontier
// against the cache, and the remainder queues for dispatch.
func (c *Cluster) activate(jb *simJob) {
	jb.active = true
	jb.start = c.now()
	jb.tr = trace.NewWithNow(c.clock.Now)
	p := jb.spec.Problem
	jb.eng = engine.New(p.Kernel.Pattern(), p.Codec, p.Size, jb.spec.Proc, engine.Config[int32]{
		TaskTimeout: jb.spec.TaskTimeout,
		MaxAttempts: jb.spec.MaxAttempts,
		Cache:       c.opts.Cache,
		CacheKey:    jb.spec.CacheKey,
		Trace:       jb.tr,
	})
	ready, err := jb.eng.Frontier()
	if c.settle(jb, err) {
		return
	}
	c.requeueReady(jb, ready)
	c.dispatchAll()
}

// settle ends the job when an engine event failed it or committed its last
// vertex, and reports whether it is over.
func (c *Cluster) settle(jb *simJob, err error) bool {
	switch {
	case err != nil:
		jb.finish(fmt.Errorf("sim: job %q: %w", jb.spec.Name, err), c.now())
	case jb.eng.Finished():
		jb.finish(nil, c.now())
	}
	return jb.done
}

func (jb *simJob) finish(err error, now time.Time) {
	if jb.done {
		return
	}
	jb.done = true
	jb.err = err
	if jb.eng != nil { // nil: the horizon passed before the job activated
		jb.leaked = jb.eng.Leaked()
	}
	jb.elapsed = now.Sub(jb.start)
}

// requeue puts previously dispatched vertices back on the ready stack,
// refunding their fair-share charge (fleet.requeue).
func (c *Cluster) requeue(jb *simJob, ids ...int32) {
	if len(ids) == 0 || jb.done {
		return
	}
	jb.ready = append(jb.ready, ids...)
	jb.served -= float64(len(ids)) / jb.spec.Weight
	jb.tr.Ready(len(jb.ready))
}

// requeueReady queues newly computable (or speculation-flagged)
// vertices without touching the fair-share account (fleet.requeueReady).
func (c *Cluster) requeueReady(jb *simJob, ids []int32) {
	if len(ids) == 0 || jb.done {
		return
	}
	jb.ready = append(jb.ready, ids...)
	jb.tr.Ready(len(jb.ready))
}

// tickJob applies one control tick to one job: the deadline, overtime
// expiry with the job's MaxAttempts cap, then — only while nothing is
// queued — speculation flagging with the fleet's per-job live-worker
// budget (fleet.tickJob).
func (c *Cluster) tickJob(jb *simJob, now time.Time) {
	if jb.spec.Deadline > 0 && now.Sub(jb.start) >= jb.spec.Deadline {
		jb.finish(fmt.Errorf("sim: job %q exceeded its %v deadline", jb.spec.Name, jb.spec.Deadline), now)
		return
	}
	requeue, err := jb.eng.Expire(now)
	if c.settle(jb, err) {
		return
	}
	c.requeue(jb, requeue...)
	if c.opts.Speculate && len(jb.ready) == 0 {
		q, mult := c.specParams()
		c.requeueReady(jb, jb.eng.FlagStragglers(now, q, mult,
			c.opts.SpecFloor, c.opts.SpecMinSamples, c.reg.Live()))
	}
}
