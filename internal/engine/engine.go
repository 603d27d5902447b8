// Package engine is the master part (Figs. 9-10 of the paper) as two state
// machines without I/O, each written once. Job is one DAG job: its graph
// and parser, block store, sub-task register table, overtime queue, lease
// table, runtime profile, speculation ledger, cross-job cache keys, reclaim
// counts, checkpoint writer and scheduling counters (Counters, Stats). Pool
// is the scheduler above the jobs of a shared worker pool: the running-job
// table, every job's ready set behind its draw order (internal/sched) and
// fair-share account, the draw, the hunger pass, revocation across jobs,
// the control tick and the tuner (pool.go). Both have one method per event,
// which returns what the driver must do next — vertex ids to queue or ship,
// a verdict, a task's payload, the jobs to end — and does no I/O of its own
// beyond the cache and the checkpoint writer a Job was handed.
//
// One driver runs jobs under a Pool, core.Driver, with one member source,
// its registry: core.RunContext's in-process members (one job, its Policy
// the job's draw order), the fleet's (many jobs over members in process or
// over TCP) and the simulator's (a single-threaded event loop on a fake
// clock). The driver owns what is I/O: members, their links and
// known-sets, the message around a payload, the membership registry, when
// the tick fires, the finish latch; its members announce idleness and
// hunger.
//
// docs/INTERNALS.md ("Job engine") has the event → call → action tables.
//
// Neither type starts a goroutine, channel or timer nor reads a clock: time
// arrives as the now argument of the event. A Pool takes no lock at all —
// its driver serializes every call, and with them the Job methods the pool
// calls: Lease, Expire, FlagStragglers, Revoke, Deepest, StealFrom, Sample.
//
// Concurrency contract, for what a driver calls on a Job itself. Replay,
// Frontier and Complete have one caller at a time — the receive side,
// outside the driver's lock, so that a commit (decode, store, cache and
// checkpoint write) never stalls a draw — and own the parser, the store
// writes, the content keys and the reclaim counts without a lock; a sender
// reading a committed dependency (TaskPayload, ResultKey) is ordered behind
// the write by the driver's own ready hand-off, since a vertex is only drawn
// after Complete returned it. Graph, TaskPayload, ResultKey, Shipped and
// Unlease may run from concurrent senders, the accessors from any goroutine. So
// Complete races Lease and the tick: specMu guards the speculation ledger
// both write and is the only lock the engine declares; the sched tables,
// the parser, the store, the cache and the trace recorder keep their own
// leaf locks, none of which is held across a call out.
package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Config is what a driver's own options say about one job.
type Config[T any] struct {
	// TaskTimeout is the overtime bound of one vertex; entry k of a batch
	// gets k+1 of them (see Lease).
	TaskTimeout time.Duration
	// MaxAttempts is how many overtime expiries of one vertex fail the job.
	MaxAttempts int
	// Cache and CacheKey, both set, turn on cross-job memoization:
	// computable vertices are probed before they are handed out and every
	// committed block is written through.
	Cache    *cas.Store
	CacheKey string
	// Delta ships the job's tasks against its members' known-sets
	// (TaskPayload with a Known): every committed block's content key is
	// recorded, as under a cache, for the references it becomes.
	Delta bool
	// Reclaim drops a block from the store once every vertex that reads it
	// has committed.
	Reclaim bool
	// Trace receives the start, speculate, dispatch, end and steal
	// events; nil records nothing.
	Trace *trace.Recorder
	// OnProgress, when non-nil, is called from Frontier and from every
	// accepted Complete with (committed, total) vertices.
	OnProgress func(completed, total int)
}

// Outcome is Lease's verdict on one drawn vertex.
type Outcome uint8

const (
	// Granted: the primary attempt is leased to the member; ship it.
	Granted Outcome = iota
	// Backup: the vertex carried a speculation flag and the member now
	// holds a concurrent attempt beside the original; ship it.
	Backup
	// Gone: the vertex finished (or lost the attempt a backup would have
	// raced) while it sat in the ready queue; drop the draw.
	Gone
	// Held: the vertex is flagged for a backup and this member runs its
	// original. The flag is kept; the driver puts the vertex back for
	// another member and counts the draw as served, or it would pop the
	// same vertex again at once.
	Held
)

// Job is the state of one DAG job. See the package comment for which
// goroutine may call what.
type Job[T any] struct {
	cfg   Config[T]
	codec matrix.Codec[T]

	graph   *dag.Graph
	parser  *dag.Parser
	store   *matrix.Store[T]
	reg     *sched.RegisterTable
	ot      *sched.OvertimeQueue
	leases  *sched.LeaseTable
	profile *sched.RuntimeProfile
	ctrs    Counters
	ckpt    *checkpoint.Writer

	// frontier[v] marks a computable, uncommitted vertex while checkpoint
	// records replay; Frontier hands the set over and clears it.
	frontier []bool

	// timeouts counts overtime expiries per vertex: the MaxAttempts guard.
	// A backup bumps the register table's attempt stamp without indicting
	// the vertex, so the stamp is not the measure. Expire only.
	timeouts map[int32]int

	// specPending marks vertices FlagStragglers queued for a backup: the
	// next draw of one is a concurrent attempt, not a superseding one.
	// backupOf remembers the live backup attempt per vertex so the race is
	// classified won or wasted when it resolves.
	specMu      sync.Mutex
	specPending map[int32]bool
	backupOf    map[int32]int32

	// resultKey[v] is the content key of v's committed payload (nil unless
	// Cached or Delta); uses[v] counts the uncommitted vertices that read
	// block v (nil without Reclaim). Receive side only.
	resultKey []cas.Key
	uses      []int32
}

// New builds the state of one job: the DAG of pattern over a size matrix
// cut into proc blocks. The driver has validated its problem; nothing
// here can fail.
func New[T any](pattern dag.Pattern, codec matrix.Codec[T], size, proc dag.Size, cfg Config[T]) *Job[T] {
	geom := dag.MatrixGeometry(size, proc)
	graph := dag.Build(pattern, geom)
	j := &Job[T]{
		cfg:         cfg,
		codec:       codec,
		graph:       graph,
		parser:      dag.NewParser(graph),
		store:       matrix.NewStore[T](geom),
		reg:         sched.NewRegisterTable(),
		ot:          sched.NewOvertimeQueue(),
		leases:      sched.NewLeaseTable(),
		profile:     sched.NewRuntimeProfile(0),
		frontier:    make([]bool, len(graph.Verts)),
		timeouts:    make(map[int32]int),
		specPending: make(map[int32]bool),
		backupOf:    make(map[int32]int32),
	}
	if j.Cached() || cfg.Delta {
		j.resultKey = make([]cas.Key, len(graph.Verts))
	}
	if cfg.Reclaim {
		j.uses = make([]int32, len(graph.Verts))
		for _, id := range graph.Existing() {
			for _, d := range graph.Vertex(id).DataPre {
				j.uses[d]++
			}
		}
	}
	for _, id := range j.parser.InitialReady() {
		j.frontier[id] = true
	}
	return j
}

// SetCheckpoint makes every later commit append its record to w. Set
// before the replay, replayed records are written again and the new
// stream is self-contained (core); set after it, they are not
// (checkpoint.OpenAppend continues the replayed file in place).
func (j *Job[T]) SetCheckpoint(w *checkpoint.Writer) { j.ckpt = w }

// Replay commits one checkpoint record; it is the callback of
// checkpoint.Replay and checkpoint.OpenAppend, and must not be called
// after Frontier. A record is untrusted: an unknown vertex, one that is
// not computable at this point of the log, or a payload that is not its
// block is an error, and the log is refused.
func (j *Job[T]) Replay(v int32, payload []byte) error {
	if v < 0 || int(v) >= len(j.graph.Verts) || !j.graph.Vertex(v).Exists {
		return fmt.Errorf("checkpoint names unknown vertex %d", v)
	}
	if !j.frontier[v] {
		return fmt.Errorf("checkpoint record for vertex %d out of order", v)
	}
	b, err := j.decode(v, payload)
	if err != nil {
		return fmt.Errorf("checkpoint payload for vertex %d: %v", v, err)
	}
	// commit writes restored work through to the cross-job cache too: a
	// resumed run warms it exactly like a computed one.
	if err := j.commit(v, payload, b, nil); err != nil {
		return err
	}
	j.frontier[v] = false
	for _, nv := range j.complete(v) {
		j.frontier[nv] = true
	}
	j.ctrs.Restored.Add(1)
	return nil
}

// Frontier returns the vertices to queue first, in ascending id order:
// the DAG roots, or what the replayed records left computable, minus
// everything the cache could absorb. Called once, before any Lease.
func (j *Job[T]) Frontier() ([]int32, error) {
	var ready []int32
	for id, ok := range j.frontier {
		if ok {
			ready = append(ready, int32(id))
		}
	}
	j.frontier = nil
	ready, err := j.absorb(ready)
	j.progress()
	return ready, err
}

// Lease arbitrates one vertex a sender drew for member: a primary attempt
// for an ordinary draw (superseding any earlier one — a redistribution), a
// concurrent backup for a vertex FlagStragglers queued. On Granted and
// Backup the attempt is registered, leased to member at now and watched
// until now + (slot+1)·TaskTimeout, where slot is the entry's position in
// the batch being built: a worker runs a batch in order, so entry k may
// rightly wait k task-times before it starts.
func (j *Job[T]) Lease(member int, v int32, slot int, now time.Time) (attempt int32, out Outcome) {
	j.specMu.Lock()
	pending := j.specPending[v]
	delete(j.specPending, v)
	j.specMu.Unlock()
	var ok bool
	if !pending {
		attempt, ok = j.reg.Register(v)
	} else {
		for _, l := range j.leases.Holders(v) {
			if l.Worker == member {
				j.specMu.Lock()
				j.specPending[v] = true
				j.specMu.Unlock()
				return 0, Held
			}
		}
		// Refused when the original finished, or was cancelled, while the
		// flag waited in the queue; an uncovered unfinished vertex always
		// comes back through Expire or Revoke, so nothing is lost.
		attempt, ok = j.reg.RegisterBackup(v)
		out = Backup
	}
	if !ok {
		return 0, Gone
	}
	deadline := now.Add(j.cfg.TaskTimeout * time.Duration(slot+1))
	if out == Backup {
		j.specMu.Lock()
		j.backupOf[v] = attempt
		j.specMu.Unlock()
		j.leases.Add(v, member, attempt, now)
		j.ot.AddConcurrent(v, attempt, deadline)
		j.ctrs.Speculated.Add(1)
		j.cfg.Trace.Speculate(member, v)
	} else {
		j.leases.Grant(v, member, attempt, now)
		j.ot.Add(v, attempt, deadline)
	}
	j.cfg.Trace.TaskStart(member, v)
	j.ctrs.Dispatches.Add(1)
	return attempt, out
}

// Shipped records the task message the driver built from Granted and
// Backup leases: n vertices to member, bytes of payload.
func (j *Job[T]) Shipped(member, n, bytes int) {
	j.ctrs.TaskBytes.Add(int64(bytes))
	if n > 1 {
		j.ctrs.BatchMessages.Add(1)
	}
	j.cfg.Trace.Dispatch(member, n, bytes)
}

// Unlease takes back an attempt Lease granted and the driver could not
// ship because the job ended under it. The vertex is not requeued.
func (j *Job[T]) Unlease(v, attempt int32) { j.drop(v, attempt) }

// drop retires one live attempt wherever it is recorded — lease, overtime
// watch, speculation ledger, register table — and reports whether no
// concurrent attempt still covers v, so that it must be queued again. A
// dead backup was wasted; a dead original leaves its backup the sole
// attempt, no longer a race to classify.
func (j *Job[T]) drop(v, attempt int32) (uncovered bool) {
	j.leases.ReleaseAttempt(v, attempt)
	j.ot.RemoveAttempt(v, attempt)
	j.specMu.Lock()
	if backup, ok := j.backupOf[v]; ok {
		delete(j.backupOf, v)
		if backup == attempt {
			j.ctrs.SpecWasted.Add(1)
		}
	}
	j.specMu.Unlock()
	return j.reg.CancelAttempt(v, attempt) == 0
}

// Complete applies member's result for (v, attempt). A result whose
// attempt is not live — superseded by a redistribution, beaten by the
// other side of a speculative race, delivered twice — is counted stale and
// refused: accepted is false and nothing changed. An accepted result is
// committed (store, cache write-through, checkpoint record), the DAG
// advances, and ready lists the vertices that became computable and the
// cache could not absorb. An error fails the job: the payload was not v's
// block, or the checkpoint could not be written.
func (j *Job[T]) Complete(member int, v, attempt int32, payload []byte, now time.Time) (ready []int32, accepted bool, err error) {
	if !j.reg.Accept(v, attempt) {
		j.ctrs.StaleResults.Add(1)
		return nil, false, nil
	}
	j.ot.Remove(v)
	for _, l := range j.leases.Release(v) { // the winner and any loser of a race
		if l.Attempt == attempt {
			j.profile.Observe(now.Sub(l.Granted))
		}
	}
	j.specMu.Lock()
	if backup, ok := j.backupOf[v]; ok {
		delete(j.backupOf, v)
		delete(j.specPending, v)
		if backup == attempt {
			j.ctrs.SpecWon.Add(1)
		} else {
			j.ctrs.SpecWasted.Add(1)
		}
	}
	j.specMu.Unlock()
	b, err := j.decode(v, payload)
	if err != nil {
		return nil, true, fmt.Errorf("bad result payload for vertex %d from member %d: %v", v, member, err)
	}
	if err := j.commit(v, payload, b, nil); err != nil {
		return nil, true, err
	}
	j.cfg.Trace.TaskEnd(member, v)
	j.ctrs.Tasks.Add(1)
	ready, err = j.absorb(j.complete(v))
	j.progress()
	return ready, true, err
}

// decode reads the one block that a result frame, a checkpoint record or
// a cache entry carries for vertex v: bytes from outside the process. Its
// cells may alias payload, which is read-only from here on.
func (j *Job[T]) decode(v int32, payload []byte) (*matrix.Block[T], error) {
	return matrix.DecodeBlock(j.codec, payload, j.graph.Geom, j.graph.Geom.PosOf(v))
}

var testHookHash = func([]byte) {} // sees every payload hashed; tests count them

// commit is the single write path for a block decode accepted: store
// insert and its peak, content-key recording, cache write-through and
// checkpoint append happen here and nowhere else, so the recovery log and
// the cache cannot diverge. Bytes arriving now (hit nil) are hashed here,
// once in the whole process; hit is the key the cache kept for a hit.
func (j *Job[T]) commit(v int32, payload []byte, b *matrix.Block[T], hit *cas.Key) error {
	j.store.Put(j.graph.Geom.PosOf(v), b)
	if n := int64(j.store.Len()); n > j.ctrs.PeakBlocks.Load() {
		j.ctrs.PeakBlocks.Store(n) // one writer: the receive side
	}
	switch {
	case hit != nil:
		j.resultKey[v] = *hit
	case j.Cached():
		testHookHash(payload)
		j.resultKey[v] = j.cfg.Cache.PutBlock(j.blockKey(v), payload)
	case j.resultKey != nil:
		testHookHash(payload)
		j.resultKey[v] = cas.PayloadKey(payload)
	}
	if j.ckpt != nil {
		return j.ckpt.Append(v, payload)
	}
	return nil
}

// complete advances the DAG past committed vertex v, releases the blocks
// v was the last reader of, and returns the newly computable vertices.
func (j *Job[T]) complete(v int32) []int32 {
	newly := j.parser.Complete(v)
	if j.uses != nil {
		for _, d := range j.graph.Vertex(v).DataPre {
			j.uses[d]--
			if j.uses[d] == 0 {
				j.store.Drop(j.graph.Geom.PosOf(d))
				j.ctrs.BlocksReclaimed.Add(1)
			}
		}
	}
	return newly
}

// blockKey derives vertex v's cross-job cache key: the job's spec digest,
// the block's cell rectangle, and the content keys of its predecessors'
// committed payloads. Only valid once every predecessor has committed.
func (j *Job[T]) blockKey(v int32) cas.Key {
	deps := j.graph.Vertex(v).DataPre
	preds := make([]cas.Key, len(deps))
	for i, d := range deps {
		preds[i] = j.resultKey[d]
	}
	r := j.graph.Geom.Rect(j.graph.Geom.PosOf(v))
	return cas.BlockKey(j.cfg.CacheKey, r.Row0, r.Col0, r.Rows, r.Cols, preds)
}

// absorb drains the cross-job cache across newly computable vertices: a
// hit commits the stored block as if its result had just arrived — no
// lease, no dispatch — and cascades into whatever that unlocks. The
// vertices that missed are returned for dispatch. An entry that does not
// decode to the vertex's own block is a miss and is recomputed: a cache
// may be stale or damaged, never authoritative. A hit is not put back.
func (j *Job[T]) absorb(ids []int32) ([]int32, error) {
	if !j.Cached() {
		return ids, nil
	}
	var miss []int32
	work := append([]int32(nil), ids...)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		var b *matrix.Block[T]
		payload, key, ok := j.cfg.Cache.GetBlock(j.blockKey(v), cas.LayerMaster)
		if ok {
			b, _ = j.decode(v, payload)
		}
		if b == nil {
			j.ctrs.CacheMisses.Add(1)
			miss = append(miss, v)
			continue
		}
		j.ctrs.CacheHits.Add(1)
		if err := j.commit(v, payload, b, &key); err != nil {
			return miss, err
		}
		work = append(work, j.complete(v)...)
	}
	return miss, nil
}

func (j *Job[T]) progress() {
	if j.cfg.OnProgress != nil {
		j.cfg.OnProgress(j.graph.N-j.parser.Remaining(), j.graph.N)
	}
}

// Expire retires every attempt whose deadline is not after now and
// returns the vertices left uncovered, in (deadline, id, attempt) order,
// for the driver to queue again. The MaxAttempts-th expiry of one vertex
// is an error: the vertex is poisoned and the job fails. Attempts a
// member's death took (Revoke) or a steal moved (StealFrom) do not count
// toward it.
func (j *Job[T]) Expire(now time.Time) (requeue []int32, err error) {
	for _, e := range j.ot.ExpireBefore(now) {
		uncovered := j.drop(e.ID, e.Attempt)
		j.timeouts[e.ID]++
		if n := j.timeouts[e.ID]; n >= j.cfg.MaxAttempts {
			return requeue, fmt.Errorf("vertex %d timed out %d times (MaxAttempts); giving up", e.ID, n)
		}
		// One side of a speculative race expiring leaves the other running.
		if uncovered {
			j.ctrs.Redistributions.Add(1)
			requeue = append(requeue, e.ID)
		}
	}
	return requeue, nil
}

// Revoke drops every lease member holds — it died or left — and returns
// how many there were and the vertices left uncovered, in grant order.
func (j *Job[T]) Revoke(member int) (revoked int, requeue []int32) {
	leases := j.leases.RevokeWorker(member)
	for _, l := range leases {
		if j.drop(l.Vertex, l.Attempt) {
			requeue = append(requeue, l.Vertex)
		}
	}
	return len(leases), requeue
}

// FlagStragglers marks for a backup the attempts older than multiplier
// times the quantile of the job's observed runtimes (never less than
// floor), oldest first, at most budget of them, and returns their
// vertices for the driver to queue; Lease turns the draw of one into a
// Backup. Nothing is flagged before minSamples completions — backing up
// half the first wave off a cold profile only adds load — nor a vertex
// that is already racing or already flagged. The driver calls it only
// while its ready queue is empty: idle capacity takes queued work first.
func (j *Job[T]) FlagStragglers(now time.Time, quantile, multiplier float64, floor time.Duration, minSamples, budget int) []int32 {
	threshold, ok := j.profile.Threshold(quantile, multiplier, floor, minSamples)
	if !ok {
		return nil
	}
	var flagged []int32
	for _, l := range j.leases.OlderThan(now.Add(-threshold)) {
		if budget == 0 {
			break
		}
		if j.reg.LiveAttempts(l.Vertex) != 1 {
			continue
		}
		j.specMu.Lock()
		skip := j.specPending[l.Vertex]
		j.specPending[l.Vertex] = true
		j.specMu.Unlock()
		if skip {
			continue
		}
		flagged = append(flagged, l.Vertex)
		budget--
	}
	return flagged
}

// Deepest names the member other than except that holds the most leases
// of this job, and how many; ties go to the lowest member id. A depth
// under 2 is not a backlog: the head lease is the entry the member is
// running right now.
func (j *Job[T]) Deepest(except int) (victim, depth int) {
	for w, n := range j.leases.Loads() {
		if w != except && (n > depth || n == depth && w < victim) {
			victim, depth = w, n
		}
	}
	return victim, depth
}

// StealFrom moves the newer half of victim's backlog — batch entries it
// has not reached yet, by grant order — toward starved member thief: the
// attempts are cancelled and their vertices returned for the driver to
// queue again. The head of the backlog stays with the victim, and so does
// any vertex in a speculative race. The victim's later results for the
// stolen entries carry retired stamps and are refused as stale.
func (j *Job[T]) StealFrom(victim, thief int) []int32 {
	backlog := j.leases.WorkerLeases(victim)
	if len(backlog) < 2 {
		return nil
	}
	var stolen []int32
	for _, l := range backlog[(len(backlog)+1)/2:] {
		if j.reg.LiveAttempts(l.Vertex) != 1 {
			continue
		}
		if j.drop(l.Vertex, l.Attempt) {
			stolen = append(stolen, l.Vertex)
		}
	}
	if len(stolen) > 0 {
		j.ctrs.Steals.Add(int64(len(stolen)))
		j.cfg.Trace.Steal(thief, len(stolen))
	}
	return stolen
}

// Sample is the job's share of one tuner observation: its cumulative
// counters and the p50/p95 of its runtime profile. Hungers is the
// driver's to fill.
func (j *Job[T]) Sample() tune.Sample {
	s := tune.Sample{
		Dispatches: j.ctrs.Dispatches.Load(),
		TaskBytes:  j.ctrs.TaskBytes.Load(),
		Steals:     j.ctrs.Steals.Load(),
		SpecWon:    j.ctrs.SpecWon.Load(),
		SpecWasted: j.ctrs.SpecWasted.Load(),
	}
	if n := j.profile.Samples(); n > 0 {
		s.ProfileP50, _ = j.profile.Quantile(0.5)
		s.ProfileP95, _ = j.profile.Quantile(0.95)
		s.ProfileSamples = n
	}
	return s
}

// Leaked counts the register-table and lease entries still live: zero
// when a job finished cleanly.
func (j *Job[T]) Leaked() int { return j.reg.Outstanding() + j.leases.Len() }

// Counters is the job's scheduling ledger, every field moved by an engine
// event.
func (j *Job[T]) Counters() *Counters { return &j.ctrs }

// Store is the job's block store: the result, once Finished.
func (j *Job[T]) Store() *matrix.Store[T] { return j.store }

// Graph is the job's DAG (shared, not to be modified): its geometry, its
// vertex count N and every vertex's data dependencies.
func (j *Job[T]) Graph() *dag.Graph { return j.graph }

// Remaining is the number of vertices not yet committed.
func (j *Job[T]) Remaining() int { return j.parser.Remaining() }

// Finished reports whether every vertex has committed.
func (j *Job[T]) Finished() bool { return j.parser.Finished() }

// Inflight is the number of leased attempts outstanding.
func (j *Job[T]) Inflight() int { return j.leases.Len() }

// Load is the number of vertices member holds a lease on.
func (j *Job[T]) Load(member int) int { return j.leases.Load(member) }

// LiveAttempts is the number of attempts covering vertex v: two while a
// backup races its original.
func (j *Job[T]) LiveAttempts(v int32) int { return j.reg.LiveAttempts(v) }

// Cached reports whether the job reads and writes the cross-job cache.
func (j *Job[T]) Cached() bool { return j.cfg.Cache != nil && j.cfg.CacheKey != "" }

// Delta reports whether the job ships against known-sets (Config.Delta).
func (j *Job[T]) Delta() bool { return j.cfg.Delta }

// ResultKey is the content key of committed vertex v's payload: the zero
// key unless the job is Cached or Delta.
func (j *Job[T]) ResultKey(v int32) cas.Key {
	if j.resultKey == nil {
		return cas.Key{}
	}
	return j.resultKey[v]
}

// Known is one member's known-set as its driver keeps it (a *cas.PeerSet):
// the content keys of the committed blocks the member holds whole, because
// it computed them or was shipped them whole. A shipped region never enters
// it — the east, south and south-east neighbours of a block read three
// different regions of it — so a region is shipped again unless the member
// holds the block.
type Known interface {
	// Holds reports whether the member holds the block whose ResultKey is key.
	Holds(key cas.Key) bool
	// Note records that the member holds that block from now on.
	Note(key cas.Key)
}

// TaskPayload encodes what the task of leased vertex v carries to a member:
// of each data dependency, the region the pattern declares v reads of it
// (dag.DataRegion: the committed block itself unless the pattern says less;
// nothing of one declared empty). Without a known-set the payload is plain.
// With the member's known-set, which only a Delta or Cached job records
// the content keys for, it is keyed: a dependency the member holds
// whole becomes a reference to the block, which the worker resolves by
// content key; a shipped block travels under its ResultKey and a region
// under the cas.RegionKey derived from it, so no cell is hashed at dispatch.
// BlocksShipped and BlocksSkipped count the verdicts.
func (j *Job[T]) TaskPayload(v int32, known Known) ([]byte, error) {
	geom, vert := j.graph.Geom, j.graph.Vertex(v)
	positions := make([]dag.Pos, len(vert.DataPre))
	for k, d := range vert.DataPre {
		positions[k] = geom.PosOf(d)
	}
	blocks := j.store.Gather(positions)
	if blocks == nil {
		return nil, fmt.Errorf("the job's blocks were handed over")
	}
	if known == nil {
		plain := blocks[:0] // in place: never ahead of the loop
		for k, b := range blocks {
			switch r := dag.DataRegion(j.graph.Pattern, geom, vert.Pos, positions[k]); {
			case r.Empty():
				continue
			case r != b.Rect:
				b = b.Region(r)
			}
			j.ctrs.BlocksShipped.Add(1)
			plain = append(plain, b)
		}
		return matrix.EncodeBlocks(j.codec, plain)
	}
	full := make([]matrix.KeyedBlock[T], 0, len(blocks))
	var refs []matrix.BlockRef
	for k, b := range blocks {
		key := j.resultKey[vert.DataPre[k]]
		if known.Holds(key) {
			j.ctrs.BlocksSkipped.Add(1)
			refs = append(refs, matrix.BlockRef{Key: key, Rect: b.Rect})
			continue
		}
		switch r := dag.DataRegion(j.graph.Pattern, geom, vert.Pos, positions[k]); {
		case r.Empty():
			continue
		case r != b.Rect:
			b = b.Region(r)
			key = cas.RegionKey(key, r.Row0, r.Col0, r.Rows, r.Cols)
		default:
			known.Note(key)
		}
		j.ctrs.BlocksShipped.Add(1)
		full = append(full, matrix.KeyedBlock[T]{Key: key, Block: b})
	}
	return matrix.EncodeBlocksKeyed(j.codec, full, refs)
}
