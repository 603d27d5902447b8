package sim

import (
	"fmt"
	"time"

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
	// Proc is the processor-level partition; zero applies the fleet's
	// rule at submission: an 8x8 block grid, or under Options.Auto the
	// advisor's choice for the members then alive.
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
	// Deadline bounds the job's total runtime from submission: the job
	// fails at the first control tick not before it
	// (fleet.JobRequest.Timeout). Zero means no deadline.
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
func (j *Job) Stats() engine.Stats {
	if j.jb.eng == nil {
		return engine.Stats{} // never activated
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

// Result assembles the job's computed DP matrix; nil until the job
// succeeded.
func (j *Job) Result() [][]int32 {
	if j.jb.err != nil || !j.jb.done {
		return nil
	}
	return j.jb.eng.Store().Assemble()
}

// simJob is the master-side state of one job: the job engine the fleet
// runs, built at activation — so its trace starts at the submission
// instant and its partition sees the membership of that instant — beside
// the simulated worker's compute and the job's lifecycle in the script.
type simJob struct {
	id     int32
	spec   JobSpec
	runner *core.TaskRunner[int32]
	eng    *engine.Job[int32]
	tr     *trace.Recorder

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
	if spec.Cost <= 0 {
		spec.Cost = c.opts.Cost
	}
	return &simJob{id: int32(len(c.jobs) + 1), spec: spec}, nil
}

// activate starts the job at its scripted submission instant, the way
// Fleet.Run admits one: the partition is settled against the members alive
// now, the trace recorder's origin is pinned, the engine probes the initial
// frontier against the cache, and the remainder enters the pool.
func (c *Cluster) activate(jb *simJob) {
	jb.active = true
	jb.start = c.now()
	jb.tr = trace.NewWithNow(c.clock.Now)
	p := jb.spec.Problem
	proc := jb.spec.Proc
	if c.opts.Auto && !proc.Valid() {
		cm, _ := p.Kernel.(tune.CostModel)
		proc = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, c.reg.Live(), cm)
	}
	if !proc.Valid() {
		proc = dag.DefaultPartition(p.Size)
	}
	var err error
	if jb.runner, err = core.NewTaskRunner(p, core.Config{ProcPartition: proc, Threads: 1}); err != nil {
		c.finish(jb, fmt.Errorf("sim: job %q: %w", jb.spec.Name, err))
		return
	}
	params := c.pool.Params(engine.JobParams{
		Name:        jb.spec.Name,
		Weight:      jb.spec.Weight,
		Priority:    jb.spec.Priority,
		Quota:       jb.spec.Quota,
		MaxAttempts: jb.spec.MaxAttempts,
		TaskTimeout: jb.spec.TaskTimeout,
		Timeout:     jb.spec.Deadline,
	})
	jb.eng = engine.New(p.Kernel.Pattern(), p.Codec, p.Size, proc, engine.Config[int32]{
		TaskTimeout: params.TaskTimeout,
		MaxAttempts: params.MaxAttempts,
		Cache:       c.opts.Cache,
		CacheKey:    jb.spec.CacheKey,
		Trace:       jb.tr,
	})
	ready, err := jb.eng.Frontier()
	if c.settle(jb, err) {
		return
	}
	c.pool.Add(jb.id, jb.eng, params, ready, jb.start)
	c.dispatchAll()
}

// settle ends the job when an engine event failed it or committed its last
// vertex, and reports whether it is over.
func (c *Cluster) settle(jb *simJob, err error) bool {
	switch {
	case err != nil:
		c.finish(jb, fmt.Errorf("sim: job %q: %w", jb.spec.Name, err))
	case jb.eng.Finished():
		c.finish(jb, nil)
	}
	return jb.done
}

// finish records the job's terminal state, once, and takes it out of the
// pool.
func (c *Cluster) finish(jb *simJob, err error) {
	if jb.done {
		return
	}
	jb.done = true
	jb.err = err
	if jb.eng != nil { // nil: the horizon passed before the job activated
		jb.leaked = jb.eng.Leaked()
	}
	jb.elapsed = c.now().Sub(jb.start)
	c.pool.Remove(jb.id)
}
