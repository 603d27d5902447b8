package sched

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Lease binds one dispatched attempt of a DAG vertex to one worker. It is
// the unit of work-loss accounting: when the worker dies or leaves, every
// lease it holds is revoked and the uncovered vertices go back on the
// ready stack. Timeout expiry (the overtime queue) and result acceptance
// (the register table) release leases individually.
//
// A vertex may carry several concurrent leases — the original attempt and
// a speculative backup — distinguished by Attempt. Seq is the global
// grant sequence: higher means dispatched later, which is what the
// work-stealing path uses to steal from the tail of a loaded worker's
// backlog (the head entry is the one it is probably executing now).
type Lease struct {
	Vertex  int32
	Worker  int
	Attempt int32
	Seq     int
	Granted time.Time
}

// LeaseTable indexes live leases by vertex and by worker. All methods are
// safe for concurrent use. Time is passed in explicitly so one injectable
// clock (the caller's) governs grant stamps and age queries.
type LeaseTable struct {
	mu       sync.Mutex
	seq      int
	byVertex map[int32][]Lease
	byWorker map[int]map[int32]struct{}
}

// NewLeaseTable creates an empty table.
func NewLeaseTable() *LeaseTable {
	return &LeaseTable{
		byVertex: make(map[int32][]Lease),
		byWorker: make(map[int]map[int32]struct{}),
	}
}

// Grant records a lease for vertex v held by worker with the given
// attempt, superseding every prior lease on v (a redistribution).
func (t *LeaseTable) Grant(v int32, worker int, attempt int32, now time.Time) Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.byVertex[v]
	delete(t.byVertex, v)
	for _, l := range old {
		t.unindex(l)
	}
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
	l := Lease{Vertex: v, Worker: worker, Attempt: attempt, Seq: t.seq, Granted: now}
	t.byVertex[v] = append(t.byVertex[v], l)
	set := t.byWorker[worker]
	if set == nil {
		set = make(map[int32]struct{})
		t.byWorker[worker] = set
	}
	set[v] = struct{}{}
	return l
}

// Release drops every lease on vertex v (result accepted — the winner and
// any speculative losers retire together) and returns them.
func (t *LeaseTable) Release(v int32) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.byVertex[v]
	if len(ls) == 0 {
		return nil
	}
	delete(t.byVertex, v)
	for _, l := range ls {
		t.unindex(l)
	}
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
	if ls = slices.Delete(ls, i, i+1); len(ls) == 0 {
		delete(t.byVertex, v)
	} else {
		t.byVertex[v] = ls
	}
	t.unindex(l)
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
	set := t.byWorker[worker]
	delete(t.byWorker, worker)
	if len(set) == 0 {
		return nil
	}
	out := make([]Lease, 0, len(set))
	for v := range set {
		ls := t.byVertex[v]
		kept := ls[:0]
		for _, l := range ls {
			if l.Worker == worker {
				out = append(out, l)
			} else {
				kept = append(kept, l)
			}
		}
		if len(kept) == 0 {
			delete(t.byVertex, v)
		} else {
			t.byVertex[v] = kept
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

// Load returns the number of leases held by worker.
func (t *LeaseTable) Load(worker int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byWorker[worker])
}

// Loads returns the per-worker lease counts for every worker holding at
// least one lease.
func (t *LeaseTable) Loads() map[int]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]int, len(t.byWorker))
	for w, set := range t.byWorker {
		if len(set) > 0 {
			out[w] = len(set)
		}
	}
	return out
}

// WorkerLeases returns a copy of worker's leases ordered by grant
// sequence, oldest first — the steal path takes from the tail.
func (t *LeaseTable) WorkerLeases(worker int) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := t.byWorker[worker]
	if len(set) == 0 {
		return nil
	}
	out := make([]Lease, 0, len(set))
	for v := range set {
		for _, l := range t.byVertex[v] {
			if l.Worker == worker {
				out = append(out, l)
			}
		}
	}
	slices.SortFunc(out, func(a, b Lease) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// unindex removes l's worker-side index entry if no other lease of the
// same worker covers the vertex; callers hold t.mu.
func (t *LeaseTable) unindex(l Lease) {
	for _, other := range t.byVertex[l.Vertex] {
		if other.Worker == l.Worker && other.Attempt != l.Attempt {
			return // worker still holds another attempt on this vertex
		}
	}
	if set := t.byWorker[l.Worker]; set != nil {
		delete(set, l.Vertex)
		if len(set) == 0 {
			delete(t.byWorker, l.Worker)
		}
	}
}
