package sched

import (
	"slices"
	"sync"
	"time"
)

// RuntimeProfile tracks recent sub-task runtimes for one kernel in a
// fixed-size ring, supporting quantile queries. The speculation policy
// compares each in-flight attempt's age against a high quantile of the
// profile — "this vertex has already run longer than 95% of its peers" —
// which adapts to the kernel's real cost instead of the fixed overtime
// deadline (the paper's only straggler defence).
type RuntimeProfile struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

// DefaultProfileWindow is the ring capacity used by NewRuntimeProfile
// callers that have no reason to choose: large enough to smooth jitter,
// small enough to track phase changes across DAG waves.
const DefaultProfileWindow = 256

// NewRuntimeProfile creates a profile remembering the last window
// observations (DefaultProfileWindow when window <= 0).
func NewRuntimeProfile(window int) *RuntimeProfile {
	if window <= 0 {
		window = DefaultProfileWindow
	}
	return &RuntimeProfile{buf: make([]time.Duration, window)}
}

// Observe records one completed sub-task runtime.
func (p *RuntimeProfile) Observe(d time.Duration) {
	p.mu.Lock()
	p.buf[p.next] = max(d, 0)
	p.next++
	if p.next == len(p.buf) {
		p.next = 0
		p.full = true
	}
	p.mu.Unlock()
}

// Samples returns the number of observations currently held.
func (p *RuntimeProfile) Samples() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples()
}

func (p *RuntimeProfile) samples() int {
	if p.full {
		return len(p.buf)
	}
	return p.next
}

// Quantile returns the q-quantile (0 <= q <= 1) of the held observations
// and true, or false when the profile is empty.
func (p *RuntimeProfile) Quantile(q float64) (time.Duration, bool) {
	p.mu.Lock()
	n := p.samples()
	if n == 0 {
		p.mu.Unlock()
		return 0, false
	}
	s := slices.Clone(p.buf[:n])
	p.mu.Unlock()
	slices.Sort(s)
	return s[int(min(max(q, 0), 1)*float64(n-1))], true
}

// Threshold returns the speculation age threshold — multiplier times the
// q-quantile, floored at floor — and true once at least minSamples
// observations exist. Before that it returns false: speculating off a
// cold profile would back up half the first wave.
func (p *RuntimeProfile) Threshold(q, multiplier float64, floor time.Duration, minSamples int) (time.Duration, bool) {
	if p.Samples() < minSamples {
		return 0, false
	}
	base, ok := p.Quantile(q)
	if !ok {
		return 0, false
	}
	return max(time.Duration(float64(base)*multiplier), floor), true
}
