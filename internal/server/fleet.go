package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// ErrNoTrace means the job's scheduling trace was requested from a
// manager that is not running on a shared fleet (HTTP 404: the resource
// does not exist in this deployment mode).
var ErrNoTrace = errors.New("server: job traces require fleet mode")

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

// runFleet executes one job on the shared fleet instead of the in-process
// deployment; a run that started returns its stats even when it failed.
// The run slot stays held for the duration, so MaxConcurrent acts purely
// as admission control on how many jobs the service feeds the fleet at
// once; the fleet's policy schedules among them.
func (m *Manager) runFleet(ctx context.Context, j *Job) (*core.Result[int32], error) {
	spec, err := json.Marshal(j.Spec)
	if err != nil {
		return nil, fmt.Errorf("server: encoding spec of %s: %w", j.ID, err)
	}
	req := fleet.JobRequest{
		Name:     j.ID,
		Spec:     spec,
		Proc:     m.cfg.Run.ProcPartition,
		Thread:   m.cfg.Run.ThreadPartition,
		Weight:   j.Spec.Weight,
		Priority: j.Spec.Priority,
		Timeout:  m.cfg.Run.RunTimeout,
		// The kernel+inputs digest scopes the fleet's per-block cache
		// keys; the fleet only uses it when it has a store attached.
		CacheKey: j.digest,
		OnProgress: func(completed, total int) {
			j.completed.Store(int64(completed))
			j.total.Store(int64(total))
		},
	}
	res, err := m.cfg.Fleet.Run(ctx, j.problem, req)
	if res == nil {
		return nil, err
	}
	return &core.Result[int32]{Store: res.Store, Stats: core.Stats{Stats: res.Stats}}, err
}

// Trace returns the scheduling trace of a fleet job as export-ready
// events. Unknown ids answer ErrNotFound; managers without a fleet answer
// ErrNoTrace. A job still queued (not yet handed to the fleet) has an
// empty trace.
func (m *Manager) Trace(id string) ([]trace.JSONEvent, error) {
	if _, err := m.Get(id); err != nil {
		return nil, err
	}
	if m.cfg.Fleet == nil {
		return nil, ErrNoTrace
	}
	return trace.ExportJSON(m.cfg.Fleet.TraceEvents(id)), nil
}
