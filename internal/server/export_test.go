package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/dp"
)

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// SetHoldHooks installs the observers of a held status request for one
// test and returns what restores the previous ones. Call it before the
// test's server starts and restore after the server is closed.
func SetHoldHooks(started, ended func(id string)) (restore func()) {
	prevStarted, prevEnded := holdStarted, holdEnded
	holdStarted, holdEnded = started, ended
	return func() { holdStarted, holdEnded = prevStarted, prevEnded }
}

// NewSlowRegistry is NewRegistry with every kernel slowed by perCell a
// cell (dp.Slow): a job built through it stays running long enough to be
// cancelled or to hold a run slot, and answers what the plain kernel does.
func NewSlowRegistry(perCell time.Duration) *Registry {
	r := NewRegistry()
	for name, e := range r.kernels {
		build := e.build
		e.build = func(spec JobSpec) (core.Problem[int32], finishFunc, error) {
			p, finish, err := build(spec)
			return dp.Slow(p, perCell), finish, err
		}
		r.kernels[name] = e
	}
	return r
}
