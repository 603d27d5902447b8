package engine

import (
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/sched"
)

// Attempts is the per-vertex core of the DAG Data Driven Model, one for both
// levels: a Job runs its DAG on one, core's thread level each block's slave
// DAG. An attempt starts with a deadline and is accepted (once per vertex,
// by its stamp), dropped, expired or failed; the MaxAttempts-th expired or
// failed attempt of one vertex is an error. The thread level, whose threads
// are never lost, starts no backup and expires nothing: its attempts end
// accepted or failed. The zero value is ready for Reset. Expire, Fail and
// Reset have one caller at a time; the rest may run concurrently.
type Attempts struct {
	parser   dag.Parser
	reg      *sched.RegisterTable
	ot       *sched.OvertimeQueue
	failures map[int32]int // per vertex: attempts expired or failed
	max      int
}

// Reset makes a the core of g with nothing started, reusing its tables, and
// appends g's roots to roots.
func (a *Attempts) Reset(g *dag.Graph, maxAttempts int, roots []int32) []int32 {
	if a.reg == nil {
		a.reg, a.ot, a.failures = sched.NewRegisterTable(), sched.NewOvertimeQueue(), make(map[int32]int)
	}
	a.parser.Reset(g)
	a.reg.Reset()
	a.ot.Reset()
	clear(a.failures)
	a.max = maxAttempts
	return a.parser.AppendInitialReady(roots)
}

// Start begins an attempt of v watched until deadline unless it is zero: a
// primary one that supersedes any live attempt (a redistribution), or a
// backup beside the live ones (the processor level's speculation). It is
// refused once v is accepted, and a backup while nothing is live to back up.
func (a *Attempts) Start(v int32, deadline time.Time, backup bool) (attempt int32, ok bool) {
	if !backup {
		if attempt, ok = a.reg.Register(v); ok && !deadline.IsZero() {
			a.ot.Add(v, attempt, deadline)
		}
	} else if attempt, ok = a.reg.RegisterBackup(v); ok {
		a.ot.AddConcurrent(v, attempt, deadline)
	}
	return attempt, ok
}

// Accept takes the result of (v, attempt) if the attempt is live, retires
// v's other attempts and appends to dst what became computable.
func (a *Attempts) Accept(dst []int32, v, attempt int32) (ready []int32, ok bool) {
	if !a.reg.Accept(v, attempt) {
		return dst, false
	}
	a.ot.Remove(v)
	return a.parser.AppendComplete(dst, v), true
}

// Commit advances the DAG past v without an attempt — a replayed checkpoint
// record, a cache hit — and appends what became computable.
func (a *Attempts) Commit(dst []int32, v int32) []int32 { return a.parser.AppendComplete(dst, v) }

// Drop retires an attempt that ended through no fault of its own —
// unshipped, revoked, stolen — and reports whether it left v uncovered.
func (a *Attempts) Drop(v, attempt int32) (uncovered bool) {
	a.ot.RemoveAttempt(v, attempt)
	remaining, live := a.reg.CancelAttempt(v, attempt)
	return live && remaining == 0
}

// Fail retires an attempt that panicked, as Drop does, and counts it toward
// MaxAttempts unless it was retired already.
func (a *Attempts) Fail(v, attempt int32) (uncovered bool, err error) {
	a.ot.RemoveAttempt(v, attempt)
	return a.fail(v, attempt, "panicked %d times (MaxAttempts)")
}

// Expire retires every attempt due by now, in (deadline, id, attempt)
// order, telling retired of each, and returns the vertices left uncovered.
// Each counts toward MaxAttempts; the failing one ends the pass with it.
func (a *Attempts) Expire(now time.Time, retired func(v, attempt int32)) (requeue []int32, err error) {
	for _, e := range a.ot.ExpireBefore(now) {
		retired(e.ID, e.Attempt)
		uncovered, err := a.fail(e.ID, e.Attempt, "timed out %d times (MaxAttempts); giving up")
		if err != nil {
			return requeue, err
		} else if uncovered {
			requeue = append(requeue, e.ID)
		}
	}
	return requeue, nil
}

func (a *Attempts) fail(v, attempt int32, format string) (uncovered bool, err error) {
	remaining, live := a.reg.CancelAttempt(v, attempt)
	if !live {
		return false, nil
	}
	if a.failures[v]++; a.failures[v] >= a.max {
		return false, fmt.Errorf("vertex %d "+format, v, a.failures[v])
	}
	return remaining == 0, nil
}

// Computable reports whether v became computable and is not accepted or
// committed.
func (a *Attempts) Computable(v int32) bool { return a.parser.Computable(v) }

// Remaining is the number of vertices not accepted or committed.
func (a *Attempts) Remaining() int { return a.parser.Remaining() }

// Live is the number of live attempts of v: two while a backup races.
func (a *Attempts) Live(v int32) int { return a.reg.LiveAttempts(v) }

// Outstanding is the number of vertices with a live attempt.
func (a *Attempts) Outstanding() int { return a.reg.Outstanding() }
