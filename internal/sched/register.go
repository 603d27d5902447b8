package sched

import "sync"

// RegisterTable is the sub-task register table of the master worker pool:
// every dispatched sub-task is registered before being sent; results are
// accepted only when they match a currently registered attempt, which
// makes acceptance idempotent in the presence of timeout redistributions
// (a slow slave's late result for a superseded attempt is dropped, §V.B
// steps g-h).
//
// A vertex may carry several live attempts at once: Register issues the
// primary attempt (superseding any earlier ones — a redistribution), and
// RegisterBackup adds a concurrent speculative attempt. Whichever live
// attempt's result arrives first wins; Accept then retires every other
// attempt so the losers are discarded by stamp.
type RegisterTable struct {
	mu       sync.Mutex
	live     map[int32]map[int32]struct{} // vertex id -> set of live attempts
	finished map[int32]bool
	attempts map[int32]int32 // vertex id -> last attempt number issued
}

// NewRegisterTable creates an empty table.
func NewRegisterTable() *RegisterTable {
	return &RegisterTable{
		live:     make(map[int32]map[int32]struct{}),
		finished: make(map[int32]bool),
		attempts: make(map[int32]int32),
	}
}

// Register records a new dispatch attempt for vertex id and returns its
// attempt number (1 for the first dispatch). Any earlier live attempts
// are superseded — this is the timeout-redistribution path, where the old
// attempt must no longer be accepted. It reports ok == false when the
// vertex already finished — this happens when a result races its own
// timeout redistribution, in which case the caller must not dispatch.
func (t *RegisterTable) Register(id int32) (attempt int32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished[id] {
		return 0, false
	}
	t.attempts[id]++
	a := t.attempts[id]
	t.live[id] = map[int32]struct{}{a: {}}
	return a, true
}

// RegisterBackup records a speculative attempt for vertex id alongside
// the already-live one(s) and returns its attempt number. Unlike
// Register it does not supersede: both the original and the backup may
// deliver, and Accept takes whichever lands first. It reports ok == false
// when the vertex already finished or has no live attempt to back up.
func (t *RegisterTable) RegisterBackup(id int32) (attempt int32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished[id] || len(t.live[id]) == 0 {
		return 0, false
	}
	t.attempts[id]++
	a := t.attempts[id]
	t.live[id][a] = struct{}{}
	return a, true
}

// Cancel removes every registration of vertex id (timeout redistribution,
// §V.B step g). It is a no-op for unregistered or finished vertices.
func (t *RegisterTable) Cancel(id int32) {
	t.mu.Lock()
	delete(t.live, id)
	t.mu.Unlock()
}

// CancelAttempt retires one live attempt of vertex id (its worker died or
// its individual deadline fired) and returns how many live attempts
// remain. Only when the count drops to zero must the caller requeue the
// vertex — a surviving concurrent attempt still covers it.
func (t *RegisterTable) CancelAttempt(id, attempt int32) (remaining int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := t.live[id]
	delete(set, attempt)
	if len(set) == 0 {
		delete(t.live, id)
	}
	return len(set)
}

// Accept reports whether a result for (id, attempt) should be applied:
// the attempt must be live and the vertex must not have finished. On
// success the vertex is marked finished and every other live attempt is
// retired, so the losing duplicate of a speculative race is dropped.
func (t *RegisterTable) Accept(id, attempt int32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished[id] {
		return false
	}
	if _, ok := t.live[id][attempt]; !ok {
		return false
	}
	delete(t.live, id)
	t.finished[id] = true
	return true
}

// Outstanding returns the number of vertices with at least one live
// (executing) attempt.
func (t *RegisterTable) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// LiveAttempts returns the number of live attempts for vertex id.
func (t *RegisterTable) LiveAttempts(id int32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live[id])
}
