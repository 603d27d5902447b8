package engine

// SetHashHook makes f see every payload the engine hashes from now on, and
// returns a func that restores the previous hook. Not for parallel tests:
// the hook is package state.
func SetHashHook(f func(payload []byte)) (restore func()) {
	prev := testHookHash
	testHookHash = f
	return func() { testHookHash = prev }
}
