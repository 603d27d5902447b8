package sim

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/trace"
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

// Job is one submitted job: its spec and, from its activation on, the
// driver's job. Its accessors are valid after Cluster.Run returns.
type Job struct {
	id   int32
	spec JobSpec
	job  *core.Job[int32] // nil until activated
	err  error            // why a job that never ran ended
}

// Err returns the job's terminal error (nil on success).
func (j *Job) Err() error {
	if j.job == nil {
		return j.err
	}
	return j.job.Err()
}

// Stats returns the job's scheduling counters.
func (j *Job) Stats() engine.Stats {
	if j.job == nil {
		return engine.Stats{}
	}
	return j.job.Stats()
}

// Events returns the job's virtual-time scheduling trace.
func (j *Job) Events() []trace.Event { return j.recorder().Events() }

// Summary aggregates the job's trace.
func (j *Job) Summary() trace.Summary { return j.recorder().Summarize() }

// Makespan is the job's virtual submission-to-finish time.
func (j *Job) Makespan() time.Duration { return j.Stats().Elapsed }

// Result assembles the job's computed DP matrix; nil until the job
// succeeded.
func (j *Job) Result() [][]int32 {
	if !j.finished() || j.Err() != nil {
		return nil
	}
	return j.job.Engine.Store().Assemble()
}

func (j *Job) finished() bool { return j.err != nil || j.job != nil && j.job.Finished() }

// recorder is the job's trace: nil, which records nothing, until activated.
func (j *Job) recorder() *trace.Recorder {
	if j.job == nil {
		return nil
	}
	return j.job.Trace
}

// activate starts the job at its scripted submission instant, the way
// Fleet.Run admits one (core.Driver.NewJob): the engine is built now, so
// its trace starts here and its partition sees the members alive now, and
// the driver probes the initial frontier against the cache and enters the
// remainder into the pool.
func (c *Cluster) activate(jb *Job) {
	s := jb.spec
	jb.job, jb.err = c.d.NewJob(jb.id, s.Problem, s.Proc, engine.JobParams{
		Weight:      s.Weight,
		Priority:    s.Priority,
		Quota:       s.Quota,
		MaxAttempts: s.MaxAttempts,
		TaskTimeout: s.TaskTimeout,
		Timeout:     s.Deadline,
	}, s.CacheKey, nil)
	if jb.err == nil {
		jb.job.Name, jb.job.Label = s.Name, fmt.Sprintf("sim: job %q", s.Name)
		_ = c.d.Start(jb.job) // a job that failed or finished at its start has ended
		c.dispatchAll()
	}
}

// end fails a job a run gave up on with err — the horizon passed, the
// event queue drained, a frame broke the protocol — unless it has ended.
func (c *Cluster) end(jb *Job, err error) {
	switch {
	case jb.job != nil:
		c.d.End(jb.job, fmt.Errorf("sim: job %q unfinished with %d vertices remaining: %w", jb.spec.Name, jb.job.Engine.Remaining(), err))
	case jb.err == nil:
		jb.err = fmt.Errorf("sim: job %q never activated: %w", jb.spec.Name, err)
	}
}
