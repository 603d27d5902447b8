package core

import "sync"

// affinityDispatcher is the locality-aware variant of the dynamic worker
// pool: like Dynamic, any idle worker takes a computable sub-task, but
// instead of the newest one it takes the sub-task whose data region
// overlaps most with the blocks that worker's slave already holds
// (the delta-shipping known-set). This trades a small scheduling scan for
// large traffic savings on patterns with wide data regions.
//
// It preserves the dynamic pool's central property — no worker idles while
// any sub-task is computable — so the paper's load-balance behaviour is
// unchanged; only tie-breaking among computable sub-tasks differs.
type affinityDispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ready  []int32
	closed bool
	// score rates how much of vertex v's data region worker w already
	// holds; higher is better.
	score func(worker int, v int32) int
}

func newAffinityDispatcher(score func(worker int, v int32) int) *affinityDispatcher {
	d := &affinityDispatcher{score: score}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *affinityDispatcher) Ready(ids ...int32) {
	if len(ids) == 0 {
		return
	}
	d.mu.Lock()
	d.ready = append(d.ready, ids...)
	d.mu.Unlock()
	d.cond.Broadcast()
}

func (d *affinityDispatcher) Next(w int) (int32, bool) {
	ids, ok := d.NextBatch(w, 1)
	if !ok {
		return 0, false
	}
	return ids[0], true
}

// NextBatch drains up to max of the currently ready vertices for worker w,
// best-affinity first. Like Dynamic, it takes whatever is computable the
// moment the first vertex appears — never waiting for the batch to fill.
func (d *affinityDispatcher) NextBatch(w, max int) ([]int32, bool) {
	if max < 1 {
		max = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.ready) == 0 && !d.closed {
		d.cond.Wait()
	}
	if len(d.ready) == 0 {
		return nil, false
	}
	n := len(d.ready)
	if n > max {
		n = max
	}
	ids := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		best, bestScore := 0, -1
		for k, v := range d.ready {
			if s := d.score(w, v); s > bestScore {
				best, bestScore = k, s
			}
		}
		ids = append(ids, d.ready[best])
		d.ready[best] = d.ready[len(d.ready)-1]
		d.ready = d.ready[:len(d.ready)-1]
	}
	return ids, true
}

func (d *affinityDispatcher) Requeue(id int32) { d.Ready(id) }

func (d *affinityDispatcher) ReadyCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ready)
}

func (d *affinityDispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}

// affinityScore builds the score function for the master: the number of
// blocks of v's data region that slave (worker+1) already holds.
func (m *master[T]) affinityScore(worker int, v int32) int {
	s := worker + 1
	m.knownMu.Lock()
	defer m.knownMu.Unlock()
	if s < 1 || s >= len(m.known) {
		return 0
	}
	held := m.known[s]
	n := 0
	for _, d := range m.eng.Graph().Vertex(v).DataPre {
		if held[d] {
			n++
		}
	}
	return n
}
