package core

import "repro/internal/comm"

// KeepsLevel reports whether r kept its thread level for the next Run, as
// it does unless a sub-block was re-pushed after a timeout.
func (r *TaskRunner[T]) KeepsLevel() bool { return r.level != nil }

// ServeRank runs fixed rank tr.Rank()'s worker loop as RunContext starts
// it on its in-process ranks, with no faults planned, and returns what the
// loop returns: nil when the master ended or hung up, else the failure.
func ServeRank[T any](p Problem[T], cfg Config, tr comm.Transport) error {
	cfg.Slaves = tr.Size() - 1
	cfg, err := prepare(p, cfg)
	if err != nil {
		return err
	}
	return runSlave(p, cfg, tr, newFaultState(cfg.Faults), &counters{}, func() {})
}
