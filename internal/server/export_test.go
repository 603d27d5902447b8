package server

// SetHoldHooks installs the observers of a held status request for one
// test and returns what restores the previous ones. Call it before the
// test's server starts and restore after the server is closed.
func SetHoldHooks(started, ended func(id string)) (restore func()) {
	prevStarted, prevEnded := holdStarted, holdEnded
	holdStarted, holdEnded = started, ended
	return func() { holdStarted, holdEnded = prevStarted, prevEnded }
}
