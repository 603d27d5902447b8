package sched

import (
	"container/heap"
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
// not grow it without bound.
type OvertimeQueue struct {
	mu       sync.Mutex
	clock    Clock
	h        overtimeHeap
	live     map[int32]map[int32]struct{} // vertex id -> watched attempts
	liveSize int                          // total watched attempts, for compaction
}

// NewOvertimeQueue creates an empty queue on the wall clock.
func NewOvertimeQueue() *OvertimeQueue { return NewOvertimeQueueClock(Wall) }

// NewOvertimeQueueClock creates an empty queue reading time from clock.
func NewOvertimeQueueClock(clock Clock) *OvertimeQueue {
	return &OvertimeQueue{clock: clock, live: make(map[int32]map[int32]struct{})}
}

// Add starts watching an attempt of vertex id with the given deadline. A
// later Add for the same vertex (a redistribution) supersedes every
// earlier watch.
func (q *OvertimeQueue) Add(id, attempt int32, deadline time.Time) {
	q.mu.Lock()
	q.liveSize -= len(q.live[id])
	q.live[id] = map[int32]struct{}{attempt: {}}
	q.liveSize++
	q.push(OvertimeEntry{ID: id, Attempt: attempt, Deadline: deadline})
	q.mu.Unlock()
}

// AddConcurrent starts watching an additional attempt of vertex id
// without superseding the existing watch — the speculative-backup path,
// where the original and the backup each keep their own deadline.
func (q *OvertimeQueue) AddConcurrent(id, attempt int32, deadline time.Time) {
	q.mu.Lock()
	set := q.live[id]
	if set == nil {
		set = make(map[int32]struct{})
		q.live[id] = set
	}
	set[attempt] = struct{}{}
	q.liveSize++
	q.push(OvertimeEntry{ID: id, Attempt: attempt, Deadline: deadline})
	q.mu.Unlock()
}

// Remove stops watching vertex id entirely (its result arrived).
func (q *OvertimeQueue) Remove(id int32) {
	q.mu.Lock()
	q.liveSize -= len(q.live[id])
	delete(q.live, id)
	q.mu.Unlock()
}

// RemoveAttempt stops watching one attempt of vertex id, leaving any
// concurrent attempts watched.
func (q *OvertimeQueue) RemoveAttempt(id, attempt int32) {
	q.mu.Lock()
	if set, ok := q.live[id]; ok {
		if _, watched := set[attempt]; watched {
			delete(set, attempt)
			q.liveSize--
			if len(set) == 0 {
				delete(q.live, id)
			}
		}
	}
	q.mu.Unlock()
}

// Expire removes and returns every watched entry due at the queue's
// clock's current time.
func (q *OvertimeQueue) Expire() []OvertimeEntry {
	return q.ExpireBefore(q.clock.Now())
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
	for q.h.Len() > 0 {
		top := q.h[0]
		if top.Deadline.After(now) {
			break
		}
		heap.Pop(&q.h)
		if q.watched(top) {
			set := q.live[top.ID]
			delete(set, top.Attempt)
			q.liveSize--
			if len(set) == 0 {
				delete(q.live, top.ID)
			}
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

// watched reports whether e still corresponds to a live attempt. Callers
// hold q.mu.
func (q *OvertimeQueue) watched(e OvertimeEntry) bool {
	_, ok := q.live[e.ID][e.Attempt]
	return ok
}

// push inserts an entry and compacts the heap when stale entries (watches
// already superseded or completed) outnumber live ones 4:1 — the lazy
// removals above otherwise let re-dispatch churn grow the heap without
// bound. Callers hold q.mu.
func (q *OvertimeQueue) push(e OvertimeEntry) {
	heap.Push(&q.h, e)
	if len(q.h) >= 64 && len(q.h) > 4*q.liveSize {
		kept := q.h[:0]
		for _, ent := range q.h {
			if q.watched(ent) {
				kept = append(kept, ent)
			}
		}
		q.h = kept
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
func (h overtimeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *overtimeHeap) Push(x interface{}) { *h = append(*h, x.(OvertimeEntry)) }
func (h *overtimeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
