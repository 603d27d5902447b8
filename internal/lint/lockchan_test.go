package lint

import "testing"

func TestLockAcrossSend(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	s.ch <- 1
	s.mu.Unlock()
}
`, NewLockAcrossChannel())
	wantFindings(t, got, "11: lock-across-channel: blocking send on s.ch while s.mu is held (Lock at line 10)")
}

func TestLockReleasedBeforeSendClean(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- s.n
}
`, NewLockAcrossChannel())
	wantFindings(t, got)
}

func TestDeferredUnlockAcrossReceive(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch
}
`, NewLockAcrossChannel())
	wantFindings(t, got, "12: lock-across-channel: blocking receive from s.ch while s.mu is held (Lock at line 10)")
}

func TestCondWaitExempt(t *testing.T) {
	// sync.Cond.Wait releases its locker — the dispatcher idiom
	// (sched.Queue.NextBatch) must stay clean.
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []int
}

func (s *S) next() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.q) == 0 {
		s.cond.Wait()
	}
	v := s.q[0]
	s.q = s.q[1:]
	return v
}
`, NewLockAcrossChannel())
	wantFindings(t, got)
}

func TestWaitGroupWaitUnderLock(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

func (s *S) f() {
	s.mu.Lock()
	s.wg.Wait()
	s.mu.Unlock()
}
`, NewLockAcrossChannel())
	wantFindings(t, got, "11: lock-across-channel: blocking sync.WaitGroup.Wait while s.mu is held (Lock at line 10)")
}

func TestSelectWithDefaultUnderLockClean(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}
`, NewLockAcrossChannel())
	wantFindings(t, got)
}

func TestBlockingSelectUnderLock(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	}
	s.mu.Unlock()
}
`, NewLockAcrossChannel())
	wantFindings(t, got, "11: lock-across-channel: blocking select while s.mu is held (Lock at line 10)")
}

func TestRWMutexRLockAcrossReceive(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.RWMutex
	ch chan int
}

func (s *S) f() int {
	s.mu.RLock()
	v := <-s.ch
	s.mu.RUnlock()
	return v
}
`, NewLockAcrossChannel())
	wantFindings(t, got, "11: lock-across-channel: blocking receive from s.ch while s.mu is held (Lock at line 10)")
}

func TestUnlockInBranchMergesOptimistically(t *testing.T) {
	// An unlock on one path is treated as releasing the lock after the
	// branch: the rule prefers silence over noise on merged paths.
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f(b bool) {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.ch <- 1
}
`, NewLockAcrossChannel())
	wantFindings(t, got)
}

func TestGoroutineBodyNotHeld(t *testing.T) {
	// A goroutine launched while the lock is held runs without it.
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	go func() {
		<-s.ch
	}()
	s.mu.Unlock()
}
`, NewLockAcrossChannel())
	wantFindings(t, got)
}

func TestRangeOverChannelUnderLock(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch {
		_ = v
	}
}
`, NewLockAcrossChannel())
	wantFindings(t, got, "12: lock-across-channel: blocking range over channel s.ch while s.mu is held (Lock at line 10)")
}
