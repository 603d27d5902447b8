package server

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// RegistryBuilder adapts the kernel registry as a fleet worker's job
// builder: the attach frame's spec is the JSON JobSpec the job was
// submitted with, so master and worker derive the same problem from the
// same bytes — and the attach digest catches a registry that drifted.
func RegistryBuilder(reg *Registry) fleet.Builder[int32] {
	return func(meta fleet.JobMeta) (core.Problem[int32], error) {
		var spec JobSpec
		if err := json.Unmarshal(meta.Spec, &spec); err != nil {
			return core.Problem[int32]{}, fmt.Errorf("server: decoding job %q spec: %w", meta.Name, err)
		}
		// Nothing larger than the matrix the master dispatches against.
		p, _, err := reg.Build(spec, int64(meta.Rows)*int64(meta.Cols))
		return p, err
	}
}

// FleetOptions is the pool configuration run names — dispatch batch,
// overtime bound, attempt cap, speculation, stealing and self-tuning — as
// the options of the fleet jobs run on: the one NewManager builds when no
// fleet is attached, and easyhps-serve's -fleet.
func FleetOptions(run core.Config) fleet.Options {
	return fleet.Options{
		Batch:       run.Batch,
		TaskTimeout: run.TaskTimeout,
		MaxAttempts: run.MaxAttempts,
		Speculate:   run.Speculate,
		Steal:       run.Steal,
		Auto:        run.Auto,
	}
}

// runFleet executes one job on the fleet; a run that started returns its
// stats even when it failed. The run slot stays held for the duration, so
// MaxConcurrent acts purely as admission control on how many jobs the
// service feeds the fleet at once; the fleet's policy schedules among
// them. The stats are the fleet job's (core.Job.RunStats): the sub-tasks
// its in-process members computed, and its task and result frames, one of
// each per dispatched vertex at Batch 1 — never its attach and detach
// frames, whose number depends on which members happened to run it.
func (m *Manager) runFleet(ctx context.Context, j *Job) (*core.Result[int32], error) {
	progress := m.cfg.Run.Progress
	req := j.Spec.Request(m.cfg.Run.ProcPartition, m.cfg.Run.ThreadPartition)
	// Named by the job's id, which its trace is looked up by.
	req.Name = j.ID
	req.Timeout = m.cfg.Run.RunTimeout
	req.OnProgress = func(completed, total int) {
		j.completed.Store(int64(completed))
		j.total.Store(int64(total))
		if progress != nil {
			progress(completed, total)
		}
	}
	res, err := m.fleet.Run(ctx, j.problem, req)
	if res == nil {
		return nil, err
	}
	return &core.Result[int32]{Store: res.Store, Stats: res.Stats}, err
}

// Trace returns the scheduling trace of a job as export-ready events.
// Unknown ids answer ErrNotFound. A job still queued (not yet handed to the
// fleet) has an empty trace.
func (m *Manager) Trace(id string) ([]trace.JSONEvent, error) {
	if _, err := m.Get(id); err != nil {
		return nil, err
	}
	return trace.ExportJSON(m.fleet.TraceEvents(id)), nil
}
