package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// JobRequest describes one DAG submitted to the shared fleet.
type JobRequest struct {
	// Name labels the job in metrics, traces and worker attach frames.
	Name string
	// Spec is the application-level job description shipped verbatim in
	// the attach frame, which a worker's Builder turns back into the same
	// Problem (the job service sends its JSON JobSpec); nil is allowed.
	Spec json.RawMessage
	// Proc is the processor-level partition (zero: the default rule, or
	// the advisor's under Auto); the attach frame carries it.
	Proc dag.Size
	// Thread is the thread partition every worker computes the job with,
	// carried in the attach frame.
	Thread dag.Size
	// Weight is the fair-share weight (default 1).
	Weight float64
	// Priority is the priority class (higher dispatches first).
	Priority int
	// MaxAttempts bounds overtime redistributions per vertex before the
	// job — and only the job — fails (0 = fleet default).
	MaxAttempts int
	// TaskTimeout overrides the fleet's per-vertex overtime bound for
	// this job (0 = fleet default).
	TaskTimeout time.Duration
	// Timeout fails the job at the first control tick not before this
	// long after its submission, on the fleet clock (0 = no bound).
	Timeout time.Duration
	// CacheKey is the content digest of the job's problem spec (kernel
	// plus inputs) scoping its entries in the fleet's result store
	// (Options.Cache) — not JobMeta's digest, which covers the name and
	// partitions too. Empty disables caching for this job.
	CacheKey string
	// CheckpointPath, when non-empty, persists the job's completed
	// vertices and resumes from the clean prefix on resubmission.
	CheckpointPath string
	// OnProgress, when non-nil, is called after restore and after every
	// completed vertex with (completed, total), on the goroutine delivering
	// the member's result: it must be fast.
	OnProgress func(completed, total int)
}

// JobMeta is the attach frame's payload: everything a fleet worker needs
// to build (and verify) the kernel state of one job. It travels as JSON,
// so the worker-side builder can be a different binary as long as it
// derives the same problem.
type JobMeta struct {
	Job    int32           `json:"job"`
	Name   string          `json:"name"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Rows   int             `json:"rows"`
	Cols   int             `json:"cols"`
	Proc   dag.Size        `json:"proc"`
	Thread dag.Size        `json:"thread"`
	// Digest fingerprints the fields above. The worker recomputes it
	// over what it received and over the size of the problem its builder
	// actually produced, so a builder that diverges from the master's
	// (version skew, registry drift) is refused at attach time instead
	// of corrupting the run.
	Digest string `json:"digest"`
}

// digest fingerprints the meta's identity fields (Digest itself excluded).
func (m JobMeta) digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("easyhps-job:1:%s:%s:%dx%d:%dx%d:%dx%d",
		m.Name, string(m.Spec), m.Rows, m.Cols,
		m.Proc.Rows, m.Proc.Cols, m.Thread.Rows, m.Thread.Cols)))
	return hex.EncodeToString(h[:12])
}

// Result of one fleet job: the completed blocked matrix plus the job's
// own statistics (core.Job.RunStats).
type Result[T any] struct {
	Store matrix.BlockStore[T]
	Stats core.Stats
}

// JobStatus is the monitoring view of one job (see Fleet.Snapshot).
type JobStatus struct {
	ID       int32
	Name     string
	State    string // "running", "done", "failed"
	Done     int    // completed vertices
	Total    int    // DAG size
	Ready    int    // computable vertices queued
	Inflight int    // leased attempts outstanding
	Weight   float64
	Priority int
	// Deficit is the most-served running job's normalized service minus
	// this job's: fair-share debt; a persistent one means the pool is small.
	Deficit float64
	Stats   engine.Stats
}

// newJob builds one job for the driver (core.Driver.NewJob), its attach
// frame and, with a CheckpointPath, its checkpoint — the clean prefix
// replayed, a torn tail truncated, new records appended to the same file.
func (f *Fleet[T]) newJob(id int32, p core.Problem[T], req JobRequest) (*core.Job[T], error) {
	jb, err := f.d.NewJob(id, p, req.Proc, core.PolicyDynamic, engine.JobParams{
		Weight:      req.Weight,
		Priority:    req.Priority,
		MaxAttempts: req.MaxAttempts,
		TaskTimeout: req.TaskTimeout,
		Timeout:     req.Timeout,
	}, engine.Config[T]{CacheKey: req.CacheKey, Trace: trace.NewWithNow(f.opts.Clock.Now), OnProgress: req.OnProgress})
	if err != nil {
		return nil, fmt.Errorf("fleet: job %q: %w", req.Name, err)
	}
	jb.Name, jb.Label, jb.Thread = req.Name, fmt.Sprintf("fleet: job %q", req.Name), req.Thread
	// Workers follow the frame's Proc: the advisor's choice, under Auto.
	meta := JobMeta{Job: id, Name: req.Name, Spec: req.Spec, Rows: p.Size.Rows, Cols: p.Size.Cols, Proc: jb.Engine.Graph().Geom.Block, Thread: req.Thread}
	meta.Digest = meta.digest()
	enc, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding job meta for %q: %w", req.Name, err)
	}
	jb.Meta = enc
	if req.CheckpointPath != "" {
		w, file, _, err := checkpoint.OpenAppend(req.CheckpointPath, jb.Engine.Replay)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jb.Label, err)
		}
		jb.Engine.SetCheckpoint(w)
		jb.Closer = file
	}
	return jb, nil
}
