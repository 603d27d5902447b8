// Package cluster holds what every elastic deployment shares, whichever
// master drives it: the membership table workers join, leave and die
// under (Registry — admission with never-reused incarnations, heartbeat
// deadlines, the quorum wait), the identity of the problem a one-job run
// is solving (Spec), and the per-job scheduling ledger (Counters, Stats)
// with its monitoring view (Snapshot).
//
// The master itself is internal/fleet. An elastic cluster
// (easyhps-launch -elastic) is a fleet with one job: the launcher waits
// on the registry for its quorum, submits the job with the Spec in the
// attach frame, and every worker checks that Spec against the one it was
// started with before it computes a vertex.
//
// See docs/CLUSTER.md for the membership state machine, the lease
// lifecycle and the fault harness.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/dag"
)

// Spec identifies the problem a cluster is solving. Master and workers
// each build their Problem locally from flags. In fixed-rank mode the
// digest of this struct travels in the join handshake; in elastic mode
// the struct itself travels in the job's attach frame (fleet.JobRequest.Spec,
// checked by fleet.SpecBuilder). Either way a worker built from different
// flags is refused instead of corrupting the run.
type Spec struct {
	// App names the application (the internal/cli registry).
	App string
	// N is the matrix side length.
	N int
	// Seed is the workload seed.
	Seed int64
	// Proc is process_partition_size; zero means the runtime default,
	// which both sides derive identically from N.
	Proc dag.Size
	// Thread is thread_partition_size (worker-local, but part of the
	// spec so a run is fully described by it).
	Thread dag.Size
}

// Digest fingerprints the spec: the fixed-rank join handshake carries it,
// and it scopes a one-job run's entries in the result cache.
func (s Spec) Digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("easyhps-spec:1:%s:%d:%d:%dx%d:%dx%d",
		s.App, s.N, s.Seed, s.Proc.Rows, s.Proc.Cols, s.Thread.Rows, s.Thread.Cols)))
	return hex.EncodeToString(h[:12])
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
	// BlocksShipped counts data-region blocks sent to workers under the
	// keyed wire format; BlocksSkipped counts blocks replaced by a
	// content-key reference because the worker already held them.
	BlocksShipped, BlocksSkipped int64
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

// Snapshot is the monitoring view of a membership table, exposed through
// the job service's /metrics endpoint (see Registry.Metrics).
type Snapshot struct {
	// States counts current members by state name.
	States map[string]int
	// Joins, Leaves, Deaths, LeasesRevoked mirror Stats, cumulatively.
	Joins, Leaves, Deaths, LeasesRevoked int64
}
