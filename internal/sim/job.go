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
	// rule at submission: an 8x8 block grid, or under Options.Pool.Auto the
	// advisor's choice for the members then alive.
	Proc dag.Size
	// Params is the job's standing in the pool: fair-share weight,
	// priority class, quota, and the MaxAttempts and TaskTimeout that
	// override the cluster defaults. Its Timeout bounds the job's total
	// runtime from submission: the job fails at the first control tick not
	// before it (fleet.JobRequest.Timeout). Zero values inherit.
	Params engine.JobParams
	// Service is the service time of a vertex over block r, before the
	// worker's speed and the cluster's jitter scale it; nil costs the
	// cluster's Options.Cost a vertex.
	Service func(r dag.Rect) time.Duration
	// CacheKey scopes the job's entries in the cluster's cross-job
	// result store; empty disables caching for this job.
	CacheKey string
	// Policy is the job's draw order (core.Driver.NewJob): the dynamic
	// pool, the static block-cyclic schedule over the workers admitted at
	// its submission, or affinity. A cached or affinity job ships against
	// its workers' known-sets (delta shipping).
	Policy core.Policy
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

// RunStats returns the job's ledger with its task and result frames
// (messages and payload bytes).
func (j *Job) RunStats() core.Stats {
	if j.job == nil {
		return core.Stats{}
	}
	return j.job.RunStats()
}

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
// its trace starts here and its partition and draw order see the members
// of now, and the driver probes the initial frontier against the cache and
// enters the remainder into the pool.
func (c *Cluster) activate(jb *Job) {
	s := jb.spec
	jb.job, jb.err = c.d.NewJob(jb.id, s.Problem, s.Proc, s.Policy, s.Params, engine.Config[int32]{CacheKey: s.CacheKey, Trace: trace.NewWithNow(c.clock.Now)})
	if jb.err == nil {
		jb.job.Name, jb.job.Label = s.Name, fmt.Sprintf("sim: job %q", s.Name)
		_ = c.d.Start(jb.job) // a job that failed or finished at its start has ended
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
