package sched

import (
	"container/heap"
	"slices"
	"sync"
	"time"
)

// OvertimeEntry records one executing sub-task attempt: the vertex id, the
// dispatch attempt number and the deadline by which a result must arrive.
type OvertimeEntry struct {
	ID       int32
	Attempt  int32
	Deadline time.Time
}

// OvertimeQueue is the timeout-detection structure of the worker pools:
// when a computable sub-task starts executing, its id and start time enter
// the queue; the fault-tolerance thread periodically expires entries whose
// deadline has passed (§V of the paper). Removal on completion is lazy: a
// heap entry whose (id, attempt) is no longer live — superseded by a
// redistribution, retired by Accept, or cancelled individually — is
// discarded when it surfaces, never expired. The heap is compacted when
// stale entries dominate so fine partitions with frequent re-dispatch do
// not grow it without bound. A single-attempt watch allocates nothing once
// the heap and the map have grown to the queue's working size.
type OvertimeQueue struct {
	mu   sync.Mutex
	h    overtimeHeap
	live map[int32]watch // vertex id -> watched attempts
}

// watch is the set of watched attempts of one vertex: the first inline, and
// AddConcurrent's in more, the one place a watch allocates.
type watch struct {
	first int32
	more  []int32
}

// NewOvertimeQueue creates an empty queue.
func NewOvertimeQueue() *OvertimeQueue {
	return &OvertimeQueue{live: make(map[int32]watch)}
}

// Add starts watching an attempt of vertex id with the given deadline. A
// later Add for the same vertex (a redistribution) supersedes every
// earlier watch.
func (q *OvertimeQueue) Add(id, attempt int32, deadline time.Time) {
	q.mu.Lock()
	q.live[id] = watch{first: attempt}
	q.push(OvertimeEntry{ID: id, Attempt: attempt, Deadline: deadline})
	q.mu.Unlock()
}

// AddConcurrent starts watching an additional attempt of vertex id
// without superseding the existing watch — the speculative-backup path,
// where the original and the backup each keep their own deadline.
func (q *OvertimeQueue) AddConcurrent(id, attempt int32, deadline time.Time) {
	q.mu.Lock()
	if w, ok := q.live[id]; ok {
		w.more = append(w.more, attempt)
		q.live[id] = w
	} else {
		q.live[id] = watch{first: attempt}
	}
	q.push(OvertimeEntry{ID: id, Attempt: attempt, Deadline: deadline})
	q.mu.Unlock()
}

// Remove stops watching vertex id entirely (its result arrived).
func (q *OvertimeQueue) Remove(id int32) {
	q.mu.Lock()
	delete(q.live, id)
	q.mu.Unlock()
}

// RemoveAttempt stops watching one attempt of vertex id, leaving any
// concurrent attempts watched.
func (q *OvertimeQueue) RemoveAttempt(id, attempt int32) {
	q.mu.Lock()
	q.drop(id, attempt)
	q.mu.Unlock()
}

// ExpireBefore removes and returns every watched entry whose deadline is
// not after now, ordered by (deadline, id, attempt): same-instant
// deadlines surface in one order whatever order they were added in.
// Entries superseded by a newer attempt or removed on completion are
// discarded silently.
func (q *OvertimeQueue) ExpireBefore(now time.Time) []OvertimeEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	var expired []OvertimeEntry
	for len(q.h) > 0 && !q.h[0].Deadline.After(now) {
		// heap.Pop would box the entry; move the last one up instead.
		top, last := q.h[0], len(q.h)-1
		q.h[0], q.h = q.h[last], q.h[:last]
		heap.Fix(&q.h, 0)
		if q.drop(top.ID, top.Attempt) {
			expired = append(expired, top)
		}
	}
	return expired
}

// Len returns the number of vertices currently watched.
func (q *OvertimeQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.live)
}

// drop stops watching one attempt, reporting whether it was watched.
// Callers hold q.mu.
func (q *OvertimeQueue) drop(id, attempt int32) bool {
	w, ok := q.live[id]
	k := slices.Index(w.more, attempt)
	switch {
	case k >= 0:
		w.more = slices.Delete(w.more, k, k+1)
	case !ok || w.first != attempt:
		return false
	case len(w.more) == 0:
		delete(q.live, id)
		return true
	default:
		w.first, w.more = w.more[0], w.more[1:]
	}
	q.live[id] = w
	return true
}

// watched reports whether e still corresponds to a live attempt. Callers
// hold q.mu.
func (q *OvertimeQueue) watched(e OvertimeEntry) bool {
	w, ok := q.live[e.ID]
	return ok && (w.first == e.Attempt || slices.Contains(w.more, e.Attempt))
}

// push inserts an entry and compacts the heap when it holds over four
// entries a watched vertex, most of them stale (watches already superseded
// or completed) — the lazy removals above otherwise let re-dispatch churn
// grow the heap without bound. Like ExpireBefore it fixes the heap in place
// rather than box the entry through heap.Push. Callers hold q.mu.
func (q *OvertimeQueue) push(e OvertimeEntry) {
	q.h = append(q.h, e)
	heap.Fix(&q.h, len(q.h)-1)
	if len(q.h) >= 64 && len(q.h) > 4*len(q.live) {
		q.h = slices.DeleteFunc(q.h, func(e OvertimeEntry) bool { return !q.watched(e) })
		heap.Init(&q.h)
	}
}

type overtimeHeap []OvertimeEntry

func (h overtimeHeap) Len() int { return len(h) }
func (h overtimeHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if !a.Deadline.Equal(b.Deadline) {
		return a.Deadline.Before(b.Deadline)
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Attempt < b.Attempt
}
func (h overtimeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *overtimeHeap) Push(x any)   { *h = append(*h, x.(OvertimeEntry)) }
func (h *overtimeHeap) Pop() (x any) { x, *h = (*h)[len(*h)-1], (*h)[:len(*h)-1]; return x }
