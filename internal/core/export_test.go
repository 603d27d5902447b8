package core

// KeepsLevel reports whether r kept its thread level for the next Run, as
// it does unless a sub-block was re-pushed after a timeout.
func (r *TaskRunner[T]) KeepsLevel() bool { return r.level != nil }

// SubTasks returns the number of thread-level sub-sub-tasks r executed so
// far (duplicates from timeout re-pushes included).
func (r *TaskRunner[T]) SubTasks() int64 { return r.ctrs.subTasks.Load() }
