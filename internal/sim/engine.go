package sim

import (
	"container/heap"
	"time"
)

// event is one scheduled simulator action: a closure pinned to a virtual
// instant. seq is the global scheduling sequence number, which breaks
// same-instant ties by insertion order — the property that makes the
// whole simulation a deterministic function of (scenario, seed).
type event struct {
	at  time.Time
	seq int64
	fn  func()
}

// eventHeap orders events by (virtual time, insertion sequence).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// schedule enqueues fn at the given virtual instant. Scheduling in the
// past (possible when a script step lands before the current event)
// clamps to now: the event still runs, after everything already queued
// for this instant.
func (c *Cluster) schedule(at time.Time, fn func()) {
	if at.Before(c.clock.Now()) {
		at = c.clock.Now()
	}
	c.seq++
	heap.Push(&c.pq, &event{at: at, seq: c.seq, fn: fn})
}

// after enqueues fn d from now.
func (c *Cluster) after(d time.Duration, fn func()) {
	c.schedule(c.clock.Now().Add(d), fn)
}
