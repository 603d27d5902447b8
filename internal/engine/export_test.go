package engine

import "time"

// SetHashHook makes f see every payload the engine hashes from now on, and
// returns a func that restores the previous hook. Not for parallel tests:
// the hook is package state.
func SetHashHook(f func(payload []byte)) (restore func()) {
	prev := testHookHash
	testHookHash = f
	return func() { testHookHash = prev }
}

// Unwatch stops watching every attempt a watches for overtime and returns
// how many there were.
func (a *Attempts) Unwatch() int { return len(a.ot.ExpireBefore(time.Unix(1<<40, 0))) }
