// Package leakcheck is the TestMain of suites that start goroutines — the
// master driver's senders, receive loops and control tick, the fleet's
// readers, in-process workers: every goroutine a suite starts must be gone
// once it has run. It is imported only from _test.go files.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// grace is how long the goroutines a suite started may take to exit after
// it returns: a closed connection's reader, a stopped ticker's loop.
const grace = 5 * time.Second

// Main runs the suite, then waits up to grace for the goroutine count to
// fall back to what it was before. If it does not, the suite fails with
// the stack of every goroutine still running. A fuzzing run is not
// checked: the fuzz engine's signal handler outlives the suite.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !fuzzing() && !settled(before) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlive the suite, %d ran before it:\n\n%s\n",
			runtime.NumGoroutine(), before, buf)
		code = 1
	}
	os.Exit(code)
}

// fuzzing reports whether -test.fuzz names a target.
func fuzzing() bool {
	f := flag.Lookup("test.fuzz")
	return f != nil && f.Value.String() != ""
}

// settled reports whether the goroutine count falls to n within grace.
// Nothing signals a goroutine's exit, so it samples the count.
func settled(n int) bool {
	deadline := time.Now().Add(grace)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			return false
		}
		<-tick.C
	}
	return true
}
