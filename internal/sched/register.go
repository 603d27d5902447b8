package sched

import "sync"

// RegisterTable is the sub-task register table of the worker pools: an
// attempt is registered before it is sent, and a result is accepted only
// for a live attempt, once per vertex, which makes acceptance idempotent
// under timeout redistribution (§V.B steps g-h). A vertex's primary attempt
// (Register) and backups (RegisterBackup) are a watch, like the overtime
// queue's, so a table allocates nothing per attempt once its maps have grown.
type RegisterTable struct {
	mu       sync.Mutex
	live     watches // vertex id -> live attempts
	finished map[int32]bool
	last     int32 // the last stamp issued: stamps are never reused
}

// NewRegisterTable creates an empty table.
func NewRegisterTable() *RegisterTable {
	return &RegisterTable{live: make(watches), finished: make(map[int32]bool)}
}

// Reset empties the table, keeping its maps; no stamp is issued twice.
func (t *RegisterTable) Reset() {
	t.mu.Lock()
	clear(t.live)
	clear(t.finished)
	t.mu.Unlock()
}

// Register issues vertex id's primary attempt, superseding any live one (a
// timeout redistribution), and returns its stamp, 1 for the table's first.
// ok is false once id finished: a result raced its redistribution, and
// nothing must be dispatched.
func (t *RegisterTable) Register(id int32) (attempt int32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished[id] {
		return 0, false
	}
	t.last++
	t.live[id] = watch{first: stamp{attempt: t.last}}
	return t.last, true
}

// RegisterBackup issues an attempt of id beside its live ones, superseding
// nothing: Accept takes whichever delivers first. ok is false while none
// is live (id finished, or its attempts were cancelled).
func (t *RegisterTable) RegisterBackup(id int32) (attempt int32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, live := t.live[id]; !live {
		return 0, false
	}
	t.last++
	t.live.add(id, stamp{attempt: t.last})
	return t.last, true
}

// CancelAttempt retires one attempt of id, reporting whether it was live
// and how many live ones remain: only at none must the caller queue id
// again, as a surviving concurrent attempt still covers it.
func (t *RegisterTable) CancelAttempt(id, attempt int32) (remaining int, live bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	live = t.live.drop(id, attempt)
	return t.live.count(id), live
}

// Accept reports whether a result for (id, attempt) applies: the attempt
// is live. It then finishes id and retires its other attempts, the losers
// of a race.
func (t *RegisterTable) Accept(id, attempt int32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.live.has(id, attempt) {
		return false
	}
	delete(t.live, id)
	t.finished[id] = true
	return true
}

// Outstanding returns the number of vertices with a live attempt.
func (t *RegisterTable) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// LiveAttempts returns the number of live attempts for vertex id.
func (t *RegisterTable) LiveAttempts(id int32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live.count(id)
}
