package core

// KeepsLevel reports whether r kept its thread level for the next Run, as
// it does unless a sub-block was re-pushed after a timeout.
func (r *TaskRunner[T]) KeepsLevel() bool { return r.level != nil }
