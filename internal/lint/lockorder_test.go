package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLockOrder(t *testing.T) {
	o, err := ParseLockOrder(`
# outermost first
level fix.A.mu          # fleet-wide state
level fix.B.mu fix.C.mu

level fix.d
`, "test.conf")
	if err != nil {
		t.Fatalf("ParseLockOrder: %v", err)
	}
	for class, want := range map[lockClass]int{
		"fix.A.mu": 1, "fix.B.mu": 2, "fix.C.mu": 2, "fix.d": 3,
		"fix.unlisted": 0,
	} {
		if got := o.Tier(class); got != want {
			t.Errorf("Tier(%s) = %d, want %d", class, got, want)
		}
	}
	if got := (*LockOrder)(nil).Tier("fix.A.mu"); got != 0 {
		t.Errorf("nil order Tier = %d, want 0", got)
	}
}

func TestParseLockOrderErrors(t *testing.T) {
	for _, tc := range []struct {
		src, wantErr string
	}{
		{"lock fix.A.mu", `want "level <class> [<class>...]"`},
		{"level", `want "level <class> [<class>...]"`},
		{"level fix.A.mu\nlevel fix.A.mu", "listed twice"},
		{"level fix.A.mu fix.A.mu", "listed twice"},
	} {
		_, err := ParseLockOrder(tc.src, "test.conf")
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseLockOrder(%q) error = %v, want substring %q", tc.src, err, tc.wantErr)
		}
	}
}

// mustOrder builds a LockOrder for fixtures; lines are outermost first.
func mustOrder(t *testing.T, lines ...string) *LockOrder {
	t.Helper()
	o, err := ParseLockOrder(strings.Join(lines, "\n"), "fixture.conf")
	if err != nil {
		t.Fatalf("ParseLockOrder: %v", err)
	}
	return o
}

func TestLockHierarchyDirectInversion(t *testing.T) {
	lh, _ := NewConcRules(mustOrder(t, "level fix.A.mu", "level fix.B.mu"))
	got := checkFixture(t, "fixtures/hierdirect", `
package fix

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func good(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func bad(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`, lh)
	wantFindings(t, got, "18: lock-hierarchy")
	if !strings.Contains(got[0], "inverts the order declared in fixture.conf") {
		t.Errorf("finding %q does not name the inversion and conf", got[0])
	}
}

func TestLockHierarchyThroughCall(t *testing.T) {
	lh, _ := NewConcRules(mustOrder(t, "level fix.A.mu", "level fix.B.mu"))
	got := checkFixture(t, "fixtures/hiercall", `
package fix

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func withA(a *A) {
	a.mu.Lock()
	a.mu.Unlock()
}

func helper(a *A) {
	withA(a)
}

func bad(a *A, b *B) {
	b.mu.Lock()
	helper(a)
	b.mu.Unlock()
}
`, lh)
	wantFindings(t, got, "20: lock-hierarchy")
	if !strings.Contains(got[0], "call to helper via withA") {
		t.Errorf("finding %q does not attribute the acquisition path", got[0])
	}
}

func TestLockHierarchySameLevelAndSelfDeadlock(t *testing.T) {
	lh, _ := NewConcRules(mustOrder(t, "level fix.A.mu fix.B.mu"))
	got := checkFixture(t, "fixtures/hierpeer", `
package fix

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func withA(a *A) {
	a.mu.Lock()
	a.mu.Unlock()
}

func peers(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func again(a *A) {
	a.mu.Lock()
	withA(a)
	a.mu.Unlock()
}
`, lh)
	wantFindings(t, got, "16: lock-hierarchy", "23: lock-hierarchy")
	if !strings.Contains(got[0], "no nesting order is declared") {
		t.Errorf("finding %q should call out the undeclared peer order", got[0])
	}
	if !strings.Contains(got[1], "self-deadlock") {
		t.Errorf("finding %q should call out the self-deadlock", got[1])
	}
}

func TestLockHierarchySuppressed(t *testing.T) {
	lh, _ := NewConcRules(mustOrder(t, "level fix.A.mu", "level fix.B.mu"))
	got := checkFixture(t, "fixtures/hiersupp", `
package fix

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func audited(a *A, b *B) {
	b.mu.Lock()
	//lint:ignore lock-hierarchy the fixture audits this inversion
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`, lh)
	wantFindings(t, got)
}

func TestBlockingUnderLockDirect(t *testing.T) {
	_, bul := NewConcRules(mustOrder(t, "level fix.A.mu"))
	got := checkFixture(t, "fixtures/blockdirect", `
package fix

import "sync"

type A struct{ mu sync.Mutex }

func bad(a *A, ch chan int) {
	a.mu.Lock()
	ch <- 1
	a.mu.Unlock()
}

func poll(a *A, ch chan int) {
	a.mu.Lock()
	select {
	case v := <-ch:
		_ = v
	default:
	}
	a.mu.Unlock()
}

func unlocked(a *A, ch chan int) {
	a.mu.Lock()
	a.mu.Unlock()
	ch <- 1
}
`, bul)
	wantFindings(t, got, "10: blocking-under-lock")
	if !strings.Contains(got[0], "send on ch while fix.A.mu is held") {
		t.Errorf("finding %q does not name the operation and the held class", got[0])
	}
}

func TestBlockingUnderLockThroughCall(t *testing.T) {
	_, bul := NewConcRules(mustOrder(t, "level fix.A.mu"))
	got := checkFixture(t, "fixtures/blockcall", `
package fix

import (
	"net"
	"sync"
)

type A struct{ mu sync.Mutex }

func write(c net.Conn) {
	_, _ = c.Write(nil)
}

func bad(a *A, c net.Conn) {
	a.mu.Lock()
	write(c)
	a.mu.Unlock()
}
`, bul)
	wantFindings(t, got, "17: blocking-under-lock")
	if !strings.Contains(got[0], "call to write may block (net.Conn.Write)") {
		t.Errorf("finding %q does not attribute the blocking path", got[0])
	}
}

// TestBlockingUnderLockGuardReturn pins the return-aware branch merge:
// the "unlock and bail" guard must not launder the held state of the
// path that falls through.
func TestBlockingUnderLockGuardReturn(t *testing.T) {
	_, bul := NewConcRules(mustOrder(t, "level fix.A.mu"))
	got := checkFixture(t, "fixtures/blockguard", `
package fix

import "sync"

type A struct {
	mu   sync.Mutex
	done bool
}

func guarded(a *A, ch chan int) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	ch <- 1
	a.mu.Unlock()
}

func released(a *A, ch chan int) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
	} else {
		a.mu.Unlock()
	}
	ch <- 1
}
`, bul)
	wantFindings(t, got, "17: blocking-under-lock")
}

func TestBlockingUnderLockCondWait(t *testing.T) {
	_, bul := NewConcRules(mustOrder(t, "level fix.A.mu", "level fix.Q.mu"))
	got := checkFixture(t, "fixtures/blockcond", `
package fix

import "sync"

type A struct{ mu sync.Mutex }

type Q struct {
	mu   sync.Mutex
	cond *sync.Cond
}

func NewQ() *Q {
	q := &Q{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *Q) wait() {
	q.mu.Lock()
	q.cond.Wait()
	q.mu.Unlock()
}

func (q *Q) badWait(a *A) {
	a.mu.Lock()
	q.mu.Lock()
	q.cond.Wait()
	q.mu.Unlock()
	a.mu.Unlock()
}
`, bul)
	// Wait releases its own locker (fix.Q.mu, exempt) but not fix.A.mu.
	wantFindings(t, got, "28: blocking-under-lock")
	if !strings.Contains(got[0], "sync.Cond.Wait on q.cond while fix.A.mu is held") {
		t.Errorf("finding %q should flag only the foreign lock", got[0])
	}
}

func TestBlockingUnderLockSuppressed(t *testing.T) {
	_, bul := NewConcRules(mustOrder(t, "level fix.A.mu"))
	got := checkFixture(t, "fixtures/blocksupp", `
package fix

import "sync"

type A struct{ mu sync.Mutex }

func audited(a *A, ch chan int) {
	a.mu.Lock()
	//lint:ignore blocking-under-lock the fixture audits this send
	ch <- 1
	a.mu.Unlock()
}
`, bul)
	wantFindings(t, got)
}

// TestLockOrderMatchesFleetInversion pins the checked-in conf against
// the inversion once hunted by hand in the fleet's dispatch path, now the
// master driver's: with the repository's own
// lint/lockorder.conf, taking Driver.mu inside a member's attachMu must
// be a violation. If the conf's levels for these classes change, this
// test moves.
func TestLockOrderMatchesFleetInversion(t *testing.T) {
	ord, err := LoadLockOrder(filepath.Join(repoRoot(), "lint", "lockorder.conf"))
	if err != nil {
		t.Fatalf("LoadLockOrder: %v", err)
	}
	lh, _ := NewConcRules(ord)
	got := checkFixture(t, "fixtures/fleetinv", `
package core

import "sync"

type Driver struct{ mu sync.Mutex }
type member struct{ attachMu sync.Mutex }

func inverted(d *Driver, m *member) {
	m.attachMu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	m.attachMu.Unlock()
}
`, lh)
	wantFindings(t, got, "11: lock-hierarchy")
	if !strings.Contains(got[0], "acquiring core.Driver.mu") ||
		!strings.Contains(got[0], "holding core.member.attachMu") {
		t.Errorf("finding %q should name the driver classes from the checked-in conf", got[0])
	}
}
