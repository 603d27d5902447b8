package engine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counters is the race-free progress ledger of one job's scheduling: the
// master's receive loop, per-member sender goroutines, and the control
// loop all bump fields concurrently, and monitoring reads them live. The
// fleet (internal/fleet) keeps one ledger per job, so per-job Stats roll
// up into fleet totals without a lock.
type Counters struct {
	Tasks, Dispatches, Redistributions, Restored atomic.Int64
	StaleResults, BatchMessages, TaskBytes       atomic.Int64
	Speculated, SpecWon, SpecWasted, Steals      atomic.Int64
	CacheHits, CacheMisses                       atomic.Int64
	BlocksShipped, BlocksSkipped                 atomic.Int64
	PeakBlocks, BlocksReclaimed                  atomic.Int64
}

// Stats materializes the ledger into a plain Stats value. Membership and
// lease fields (Joins, Deaths, Leaked, ...) belong to the registry and
// lease table, so the caller fills them in.
func (c *Counters) Stats() Stats {
	return Stats{
		Tasks:           c.Tasks.Load(),
		Dispatches:      c.Dispatches.Load(),
		Redistributions: c.Redistributions.Load(),
		Restored:        c.Restored.Load(),
		StaleResults:    c.StaleResults.Load(),
		BatchMessages:   c.BatchMessages.Load(),
		TaskBytes:       c.TaskBytes.Load(),
		Speculated:      c.Speculated.Load(),
		SpecWon:         c.SpecWon.Load(),
		SpecWasted:      c.SpecWasted.Load(),
		Steals:          c.Steals.Load(),
		CacheHits:       c.CacheHits.Load(),
		CacheMisses:     c.CacheMisses.Load(),
		BlocksShipped:   c.BlocksShipped.Load(),
		BlocksSkipped:   c.BlocksSkipped.Load(),
		PeakBlocks:      c.PeakBlocks.Load(),
		BlocksReclaimed: c.BlocksReclaimed.Load(),
	}
}

// Stats aggregates what happened during one job's run on a fleet.
type Stats struct {
	// Tasks is the number of vertices completed by workers this run
	// (restored vertices excluded).
	Tasks int64
	// Dispatches counts task sends (>= Tasks under redistribution).
	Dispatches int64
	// Redistributions counts overtime-triggered reassignments.
	Redistributions int64
	// Restored counts vertices recovered from the checkpoint.
	Restored int64
	// StaleResults counts dropped results of superseded attempts
	// (late answers from slow, partitioned or dead-declared members).
	StaleResults int64
	// Joins, Leaves and Deaths count membership transitions.
	Joins, Leaves, Deaths int64
	// LeasesRevoked counts leases revoked by death or leave; Reassigned
	// counts the vertices put back on the ready stack because of it.
	LeasesRevoked, Reassigned int64
	// BatchMessages counts multi-vertex task messages sent (zero when the
	// master's Batch <= 1); TaskBytes is the total task payload volume.
	BatchMessages, TaskBytes int64
	// Speculated counts backup attempts dispatched; SpecWon of those,
	// how many beat the original; SpecWasted, how many were beaten,
	// cancelled or revoked (the overhead side of the bet).
	Speculated, SpecWon, SpecWasted int64
	// Steals counts queued-but-undispatched vertices revoked from a
	// loaded member's backlog and requeued toward a hungry one.
	Steals int64
	// CacheHits counts vertices served from the cross-job result cache
	// instead of dispatched; CacheMisses counts probes that fell through
	// to computation (internal/cas).
	CacheHits, CacheMisses int64
	// BlocksShipped counts data-region records sent to workers in full — a
	// block, or the region of it the pattern declares the task reads
	// (dag.DataRegion) — and BlocksSkipped dependencies the worker already
	// held whole, sent as references.
	BlocksShipped, BlocksSkipped int64
	// PeakBlocks is the most blocks the job's store held at once;
	// BlocksReclaimed counts the blocks it dropped at their last reader
	// (Config.Reclaim).
	PeakBlocks, BlocksReclaimed int64
	// Leaked is the number of register-table plus lease entries still
	// live when the run finished; always zero for a clean run (asserted
	// by the fault soak).
	Leaked int64
	// Elapsed is the wall-clock makespan of Run.
	Elapsed time.Duration
}

// Add accumulates o into s field by field (Elapsed takes the max, since
// concurrent jobs overlap in wall time) — the fleet's roll-up of per-job
// Stats into one aggregate view.
func (s *Stats) Add(o Stats) {
	s.Tasks += o.Tasks
	s.Dispatches += o.Dispatches
	s.Redistributions += o.Redistributions
	s.Restored += o.Restored
	s.StaleResults += o.StaleResults
	s.Joins += o.Joins
	s.Leaves += o.Leaves
	s.Deaths += o.Deaths
	s.LeasesRevoked += o.LeasesRevoked
	s.Reassigned += o.Reassigned
	s.BatchMessages += o.BatchMessages
	s.TaskBytes += o.TaskBytes
	s.Speculated += o.Speculated
	s.SpecWon += o.SpecWon
	s.SpecWasted += o.SpecWasted
	s.Steals += o.Steals
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.BlocksShipped += o.BlocksShipped
	s.BlocksSkipped += o.BlocksSkipped
	s.PeakBlocks += o.PeakBlocks // the jobs' peaks need not coincide: a bound
	s.BlocksReclaimed += o.BlocksReclaimed
	s.Leaked += o.Leaked
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d dispatches=%d redist=%d restored=%d stale=%d joins=%d leaves=%d deaths=%d revoked=%d reassigned=%d spec=%d/%d/%d steals=%d elapsed=%v",
		s.Tasks, s.Dispatches, s.Redistributions, s.Restored, s.StaleResults,
		s.Joins, s.Leaves, s.Deaths, s.LeasesRevoked, s.Reassigned,
		s.Speculated, s.SpecWon, s.SpecWasted, s.Steals, s.Elapsed)
}
