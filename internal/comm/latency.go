package comm

import "time"

// LatencyModel is the cost of an interconnect: a fixed per-message
// latency plus a bandwidth term proportional to the payload size. The
// cluster simulator charges it to a worker's timeline for each frame it
// receives or sends; ChanNetwork charges it on the sender side of every
// Send (blocking-send semantics, as with a synchronous MPI_Send), which
// both throttles dispatch and keeps per-pair ordering trivially intact.
//
// The zero value is a free network (no delay), which corresponds to an
// idealized shared-memory machine.
type LatencyModel struct {
	// Base is the per-message latency.
	Base time.Duration
	// PerKB is the transfer cost per 1024 payload bytes.
	PerKB time.Duration
}

// Delay returns the charge for a payload of n bytes.
func (l LatencyModel) Delay(n int) time.Duration {
	return l.Base + time.Duration(int64(l.PerKB)*int64(n)/1024)
}

// Zero reports whether the model charges nothing.
func (l LatencyModel) Zero() bool { return l.Base == 0 && l.PerKB == 0 }
