package sched

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts the time source of the deadline machinery (overtime
// queue, lease table, membership registry, speculation thresholds) so the
// timeout paths can be driven deterministically in tests. Production code
// uses Wall; tests inject a FakeClock and call Advance instead of
// sleeping.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTicker returns a ticker firing every d. Callers must Stop it.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the clock-agnostic subset of time.Ticker used by the periodic
// control loops.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Wall is the production clock: real time.Now and real time.Ticker.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) NewTicker(d time.Duration) Ticker {
	return wallTicker{time.NewTicker(d)}
}

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }

// FakeClock is a manually advanced Clock for deterministic timeout tests.
// Advance moves the current time forward and fires every ticker whose
// next tick falls within the advanced window, delivering one tick per
// elapsed period (capacity permitting, like time.Ticker a slow receiver
// drops ticks rather than buffering them).
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*fakeTicker
}

// NewFakeClock returns a FakeClock frozen at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTicker returns a ticker driven by Advance.
func (c *FakeClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("sched: non-positive FakeClock ticker period")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTicker{
		clock:  c,
		period: d,
		next:   c.now.Add(d),
		ch:     make(chan time.Time, 1),
	}
	c.tickers = append(c.tickers, t)
	return t
}

// Advance moves the clock forward by d and synchronously delivers any due
// ticks. It never blocks: a ticker whose channel is full drops the tick,
// matching time.Ticker semantics.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	// Deliver ticks in global time order so interleaved tickers observe a
	// consistent schedule.
	for {
		var due *fakeTicker
		for _, t := range c.tickers {
			if t.stopped || t.next.After(target) {
				continue
			}
			if due == nil || t.next.Before(due.next) {
				due = t
			}
		}
		if due == nil {
			break
		}
		c.now = due.next
		due.next = due.next.Add(due.period)
		select {
		case due.ch <- c.now:
		default:
		}
	}
	c.now = target
	c.mu.Unlock()
}

type fakeTicker struct {
	clock   *FakeClock
	period  time.Duration
	next    time.Time
	ch      chan time.Time
	stopped bool
}

func (t *fakeTicker) C() <-chan time.Time { return t.ch }

func (t *fakeTicker) Stop() {
	t.clock.mu.Lock()
	t.stopped = true
	ts := t.clock.tickers
	sort.SliceStable(ts, func(i, j int) bool { return !ts[i].stopped && ts[j].stopped })
	for len(ts) > 0 && ts[len(ts)-1].stopped {
		ts = ts[:len(ts)-1]
	}
	t.clock.tickers = ts
	t.clock.mu.Unlock()
}
