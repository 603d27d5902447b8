package sched

import (
	"cmp"
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

// OvertimeQueue is the timeout detection of the worker pools (§V of the
// paper): an executing attempt is watched until its deadline, and the
// fault-tolerance thread periodically expires the overdue ones, scanning
// the attempts in flight. A single-attempt watch allocates nothing once
// the queue's map has grown to its working size.
type OvertimeQueue struct {
	mu   sync.Mutex
	live watches // vertex id -> watched attempts
}

// watch is a set of attempts of one vertex — the overtime queue's watched
// ones, the register table's live ones: the first inline, backups in more,
// the one place a watch allocates.
type watch struct {
	first stamp
	more  []stamp
}

type stamp struct {
	attempt  int32
	deadline time.Time
}

// watches holds the watch of every vertex with one.
type watches map[int32]watch

func (m watches) add(id int32, s stamp) {
	if w, ok := m[id]; ok {
		w.more = append(w.more, s)
		m[id] = w
	} else {
		m[id] = watch{first: s}
	}
}

func (m watches) has(id, attempt int32) bool {
	w, ok := m[id]
	return ok && (w.first.attempt == attempt || slices.ContainsFunc(w.more, func(s stamp) bool { return s.attempt == attempt }))
}

func (m watches) count(id int32) int {
	if w, ok := m[id]; ok {
		return 1 + len(w.more)
	}
	return 0
}

// drop removes one attempt of vertex id, reporting whether it was there.
func (m watches) drop(id, attempt int32) bool {
	w, ok := m[id]
	k := slices.IndexFunc(w.more, func(s stamp) bool { return s.attempt == attempt })
	switch {
	case k >= 0:
		w.more = slices.Delete(w.more, k, k+1)
	case !ok || w.first.attempt != attempt:
		return false
	case len(w.more) == 0:
		delete(m, id)
		return true
	default:
		w.first, w.more = w.more[0], w.more[1:]
	}
	m[id] = w
	return true
}

// NewOvertimeQueue creates an empty queue.
func NewOvertimeQueue() *OvertimeQueue {
	return &OvertimeQueue{live: make(watches)}
}

// Reset stops watching everything, keeping the map.
func (q *OvertimeQueue) Reset() {
	q.mu.Lock()
	clear(q.live)
	q.mu.Unlock()
}

// Add starts watching an attempt of vertex id until deadline, superseding
// every earlier watch of id (a redistribution).
func (q *OvertimeQueue) Add(id, attempt int32, deadline time.Time) {
	q.mu.Lock()
	q.live[id] = watch{first: stamp{attempt, deadline}}
	q.mu.Unlock()
}

// AddConcurrent starts watching another attempt of id beside the ones
// watched (a speculative backup), each with its own deadline.
func (q *OvertimeQueue) AddConcurrent(id, attempt int32, deadline time.Time) {
	q.mu.Lock()
	q.live.add(id, stamp{attempt, deadline})
	q.mu.Unlock()
}

// Remove stops watching vertex id entirely (its result arrived).
func (q *OvertimeQueue) Remove(id int32) {
	q.mu.Lock()
	delete(q.live, id)
	q.mu.Unlock()
}

// RemoveAttempt stops watching one attempt of vertex id.
func (q *OvertimeQueue) RemoveAttempt(id, attempt int32) {
	q.mu.Lock()
	q.live.drop(id, attempt)
	q.mu.Unlock()
}

// ExpireBefore stops watching and returns every watched attempt whose
// deadline is not after now, ordered by (deadline, id, attempt): same-instant
// deadlines surface in one order whatever order they were added in.
func (q *OvertimeQueue) ExpireBefore(now time.Time) []OvertimeEntry {
	q.mu.Lock()
	defer q.mu.Unlock()
	var expired []OvertimeEntry
	due := func(id int32, s stamp) {
		if !s.deadline.After(now) {
			expired = append(expired, OvertimeEntry{ID: id, Attempt: s.attempt, Deadline: s.deadline})
		}
	}
	for id, w := range q.live {
		due(id, w.first)
		for _, s := range w.more {
			due(id, s)
		}
	}
	slices.SortFunc(expired, func(a, b OvertimeEntry) int {
		return cmp.Or(a.Deadline.Compare(b.Deadline), cmp.Compare(a.ID, b.ID), cmp.Compare(a.Attempt, b.Attempt))
	})
	for _, e := range expired {
		q.live.drop(e.ID, e.Attempt)
	}
	return expired
}
