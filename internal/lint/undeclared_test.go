package lint

import "testing"

// These fixtures hold mutexes lint/lockorder.conf does not declare: what
// blocking-under-lock checks for any mutex.

// undeclared is blocking-under-lock over a conf that declares nothing.
func undeclared(t *testing.T) Rule {
	t.Helper()
	_, bul := NewConcRules(mustOrder(t))
	return bul
}

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
`, undeclared(t))
	wantFindings(t, got, "11: blocking-under-lock: send on s.ch while s.mu is held (lock at line 10)")
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
`, undeclared(t))
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
`, undeclared(t))
	wantFindings(t, got, "12: blocking-under-lock: receive from s.ch while s.mu is held (lock at line 10)")
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
`, undeclared(t))
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
`, undeclared(t))
	wantFindings(t, got, "11: blocking-under-lock: sync.WaitGroup.Wait while s.mu is held (lock at line 10)")
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
`, undeclared(t))
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
`, undeclared(t))
	wantFindings(t, got, "11: blocking-under-lock: select while s.mu is held (lock at line 10)")
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
`, undeclared(t))
	wantFindings(t, got, "11: blocking-under-lock: receive from s.ch while s.mu is held (lock at line 10)")
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
`, undeclared(t))
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
`, undeclared(t))
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
`, undeclared(t))
	wantFindings(t, got, "12: blocking-under-lock: range over channel s.ch while s.mu is held (lock at line 10)")
}

func TestUndeclaredLockSuppressed(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) f() {
	s.mu.Lock()
	//lint:ignore blocking-under-lock the fixture audits this send
	s.ch <- 1
	s.mu.Unlock()
}
`, undeclared(t))
	wantFindings(t, got)
}

// TestUndeclaredLockAcrossSocketWriteClean is comm.Conn.wmu's shape: a
// mutex outside the conf that orders frames on the wire is held across
// the write, which only a declared mutex is checked against — while a
// channel send under the same mutex is still flagged. Two instances of
// one type are two locks.
func TestUndeclaredLockAcrossSocketWriteClean(t *testing.T) {
	got := checkFixture(t, "repro/internal/x", `package x
import (
	"net"
	"sync"
)

type Conn struct {
	wmu sync.Mutex
	c   net.Conn
}

func (c *Conn) write(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.c.Write(b)
	return err
}

func relay(a, b *Conn, ch chan int) {
	a.wmu.Lock()
	b.wmu.Lock()
	b.wmu.Unlock()
	ch <- 1
	a.wmu.Unlock()
}
`, undeclared(t))
	wantFindings(t, got, "23: blocking-under-lock: send on ch while a.wmu is held (lock at line 20)")
}
