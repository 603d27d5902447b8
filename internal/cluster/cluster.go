// Package cluster holds what every elastic deployment shares, whichever
// master drives it: the membership table workers join, leave and die
// under (Registry — admission with never-reused incarnations, heartbeat
// deadlines, the quorum wait), the identity of the problem a one-job run
// is solving (Spec), and the table's monitoring view (Snapshot). The
// per-job scheduling ledger (Counters, Stats) is internal/engine's.
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

// Snapshot is the monitoring view of a membership table, exposed through
// the job service's /metrics endpoint (see Registry.Metrics).
type Snapshot struct {
	// States counts current members by state name.
	States map[string]int
	// Joins, Leaves, Deaths, LeasesRevoked mirror engine.Stats, cumulatively.
	Joins, Leaves, Deaths, LeasesRevoked int64
}
