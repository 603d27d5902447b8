package sched

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Lease binds one dispatched attempt of a DAG vertex to one worker, the
// unit of work-loss accounting: when the worker dies or leaves, every lease
// it holds is revoked and the uncovered vertices are queued again; an
// expiry or a result releases leases individually. A vertex may carry
// several — the original and a speculative backup — told apart by Attempt.
// Seq is the grant sequence: work stealing takes from the tail of a loaded
// worker's backlog (its head is the entry it is probably running now).
type Lease struct {
	Vertex  int32
	Worker  int
	Attempt int32
	Seq     int
	Granted time.Time
}

// LeaseTable holds the live leases by vertex; a worker's are found by
// scanning them, which are the attempts in flight, a few per member. All
// methods are safe for concurrent use. Time is passed in explicitly so one
// injectable clock (the caller's) governs grant stamps and age queries.
type LeaseTable struct {
	mu       sync.Mutex
	seq      int
	byVertex map[int32][]Lease
	// loads is Loads until the table next changes (nil: not counted): one
	// scan serves the hunger passes of a control tick, one per parked member.
	loads map[int]int
}

// NewLeaseTable creates an empty table.
func NewLeaseTable() *LeaseTable {
	return &LeaseTable{byVertex: make(map[int32][]Lease)}
}

// Grant records a lease for vertex v held by worker with the given
// attempt, superseding every prior lease on v (a redistribution).
func (t *LeaseTable) Grant(v int32, worker int, attempt int32, now time.Time) Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byVertex, v)
	return t.add(v, worker, attempt, now)
}

// Add records an additional concurrent lease on v (a speculative backup)
// without superseding the existing one(s).
func (t *LeaseTable) Add(v int32, worker int, attempt int32, now time.Time) Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(v, worker, attempt, now)
}

// add appends a lease; callers hold t.mu.
func (t *LeaseTable) add(v int32, worker int, attempt int32, now time.Time) Lease {
	t.seq++
	t.loads = nil
	l := Lease{Vertex: v, Worker: worker, Attempt: attempt, Seq: t.seq, Granted: now}
	t.byVertex[v] = append(t.byVertex[v], l)
	return l
}

// Release drops every lease on vertex v (result accepted — the winner and
// any speculative losers retire together) and returns them.
func (t *LeaseTable) Release(v int32) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.byVertex[v]
	delete(t.byVertex, v)
	t.loads = nil
	return ls
}

// ReleaseAttempt drops the single lease (v, attempt) — an individual
// overtime expiry or a stolen backlog entry — leaving concurrent leases
// on v intact. It returns the dropped lease and whether it existed.
func (t *LeaseTable) ReleaseAttempt(v int32, attempt int32) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.byVertex[v]
	i := slices.IndexFunc(ls, func(l Lease) bool { return l.Attempt == attempt })
	if i < 0 {
		return Lease{}, false
	}
	l := ls[i]
	t.loads = nil
	if ls = slices.Delete(ls, i, i+1); len(ls) == 0 {
		delete(t.byVertex, v)
	} else {
		t.byVertex[v] = ls
	}
	return l, true
}

// RevokeWorker drops every lease held by worker and returns them — the
// attempts the master must cancel (and requeue where no concurrent
// attempt survives) — ordered by grant sequence, oldest first, so the
// requeue order after a member's death is a function of the table's
// history and not of map iteration.
func (t *LeaseTable) RevokeWorker(worker int) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.held(worker)
	t.loads = nil
	for _, l := range out {
		ls := slices.DeleteFunc(t.byVertex[l.Vertex], func(o Lease) bool { return o.Worker == worker })
		if len(ls) == 0 {
			delete(t.byVertex, l.Vertex)
		} else {
			t.byVertex[l.Vertex] = ls
		}
	}
	return out
}

// WorkerLeases returns a copy of worker's leases ordered by grant
// sequence, oldest first — the steal path takes from the tail.
func (t *LeaseTable) WorkerLeases(worker int) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held(worker)
}

// held collects worker's leases in grant order; callers hold t.mu.
func (t *LeaseTable) held(worker int) []Lease {
	var out []Lease
	for _, ls := range t.byVertex {
		for _, l := range ls {
			if l.Worker == worker {
				out = append(out, l)
			}
		}
	}
	slices.SortFunc(out, func(a, b Lease) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Holders returns a copy of the live leases on vertex v.
func (t *LeaseTable) Holders(v int32) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.byVertex[v])
}

// Len returns the number of live leases.
func (t *LeaseTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ls := range t.byVertex {
		n += len(ls)
	}
	return n
}

// OlderThan returns every lease granted before cutoff — the speculation
// candidates — ordered oldest first, ties broken by grant sequence so
// the order is a deterministic function of the table's history (leases
// granted in the same fake-clock instant would otherwise surface in map
// order, which the deterministic simulator cannot tolerate).
func (t *LeaseTable) OlderThan(cutoff time.Time) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Lease
	for _, ls := range t.byVertex {
		for _, l := range ls {
			if l.Granted.Before(cutoff) {
				out = append(out, l)
			}
		}
	}
	slices.SortFunc(out, func(a, b Lease) int { return cmp.Or(a.Granted.Compare(b.Granted), cmp.Compare(a.Seq, b.Seq)) })
	return out
}

// Load returns the number of vertices worker holds a lease on.
func (t *LeaseTable) Load(worker int) int { return t.Loads()[worker] }

// Loads returns, for every worker holding at least one lease, the number
// of vertices it holds one on. The map is shared until the table changes:
// read it, never write it.
func (t *LeaseTable) Loads() map[int]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loads == nil {
		t.loads = make(map[int]int)
		for _, ls := range t.byVertex {
			for i, l := range ls {
				if !slices.ContainsFunc(ls[:i], func(o Lease) bool { return o.Worker == l.Worker }) {
					t.loads[l.Worker]++
				}
			}
		}
	}
	return t.loads
}
