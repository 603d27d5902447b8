package core

import (
	"repro/internal/comm"
	"repro/internal/matrix"
)

// KeepsLevel reports whether r kept its thread level for the next Run, as
// it does unless a sub-block was re-pushed after a timeout.
func (r *TaskRunner[T]) KeepsLevel() bool { return r.level != nil }

// SubTasks returns the number of thread-level sub-sub-tasks r executed so
// far (duplicates from timeout re-pushes included).
func (r *TaskRunner[T]) SubTasks() int64 { return r.ctrs.subTasks.Load() }

// Attach attaches r to a as job, the way a spec frame attaches a runner
// built for it.
func (a *Attached[T]) Attach(job int32, r *TaskRunner[T]) {
	_ = a.Apply(comm.Message{Kind: comm.KindJobSpec, Job: job}, func(comm.Message) (*TaskRunner[T], error) { return r, nil })
}

// Named returns the block a's cache names k, nil when it names none.
func (a *Attached[T]) Named(k [32]byte) *matrix.Block[T] { return a.named[k] }

// Cached counts the blocks a's cache names and the outputs it keeps
// unnamed.
func (a *Attached[T]) Cached() (named, unnamed int) {
	for _, outs := range a.unnamed {
		unnamed += len(outs)
	}
	return len(a.named), unnamed
}

// SetHashHook makes f see every payload a worker hashes from now on, and
// returns a func that restores the previous hook. Not for parallel tests:
// the hook is package state.
func SetHashHook(f func(payload []byte)) (restore func()) {
	prev := testHookHash
	testHookHash = f
	return func() { testHookHash = prev }
}
