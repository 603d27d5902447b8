package sched

import (
	"testing"
	"time"
)

// --- FakeClock ---

func TestFakeClockAdvanceFiresTickers(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	tk := clock.NewTicker(100 * time.Millisecond)
	defer tk.Stop()

	select {
	case <-tk.C():
		t.Fatal("ticker fired before Advance")
	default:
	}
	clock.Advance(99 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("ticker fired before its period elapsed")
	default:
	}
	clock.Advance(time.Millisecond)
	select {
	case ts := <-tk.C():
		if got := ts.Sub(time.Unix(0, 0)); got != 100*time.Millisecond {
			t.Fatalf("tick stamped at +%v, want +100ms", got)
		}
	default:
		t.Fatal("ticker did not fire at its period")
	}

	// A large Advance delivers at most one buffered tick (time.Ticker
	// drop semantics), and a stopped ticker never fires again.
	clock.Advance(time.Second)
	<-tk.C()
	tk.Stop()
	clock.Advance(time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}

func TestFakeClockOrdersInterleavedTickers(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	fast := clock.NewTicker(30 * time.Millisecond)
	slow := clock.NewTicker(70 * time.Millisecond)
	defer fast.Stop()
	defer slow.Stop()

	clock.Advance(70 * time.Millisecond)
	// fast fired at 30 and 60 (second tick dropped: capacity 1); slow at 70.
	if ts := <-fast.C(); ts.Sub(time.Unix(0, 0)) != 30*time.Millisecond {
		t.Fatalf("fast tick at +%v, want +30ms", ts.Sub(time.Unix(0, 0)))
	}
	if ts := <-slow.C(); ts.Sub(time.Unix(0, 0)) != 70*time.Millisecond {
		t.Fatalf("slow tick at +%v, want +70ms", ts.Sub(time.Unix(0, 0)))
	}
	if got := clock.Now().Sub(time.Unix(0, 0)); got != 70*time.Millisecond {
		t.Fatalf("clock at +%v after Advance, want +70ms", got)
	}
}

// --- OvertimeQueue: concurrent attempts + stale-entry hygiene ---

// TestOvertimeQueueStaleAttemptNeverFires is the regression test for the
// re-dispatch staleness bug: entries whose attempt was superseded by a
// newer Add must not fire when their (earlier) deadline passes, and must
// not shadow the live entry's deadline.
func TestOvertimeQueueStaleAttemptNeverFires(t *testing.T) {
	base := time.Unix(1000, 0)
	q := NewOvertimeQueue()
	q.Add(7, 1, base.Add(10*time.Millisecond))
	q.Add(7, 2, base.Add(50*time.Millisecond)) // redistribution supersedes attempt 1

	if exp := q.ExpireBefore(base.Add(20 * time.Millisecond)); len(exp) != 0 {
		t.Fatalf("superseded attempt fired: %+v", exp)
	}
	if exp := q.ExpireBefore(base.Add(49 * time.Millisecond)); len(exp) != 0 {
		t.Fatalf("expired %+v before the live attempt's 50ms deadline", exp)
	}
	exp := q.ExpireBefore(base.Add(50 * time.Millisecond))
	if len(exp) != 1 || exp[0].Attempt != 2 {
		t.Fatalf("expired = %+v, want exactly attempt 2", exp)
	}
}

func TestOvertimeQueueConcurrentAttempts(t *testing.T) {
	base := time.Unix(1000, 0)
	q := NewOvertimeQueue()
	q.Add(3, 1, base.Add(100*time.Millisecond))
	q.AddConcurrent(3, 2, base.Add(40*time.Millisecond)) // speculative backup

	// The backup's deadline fires first; the original stays watched.
	exp := q.ExpireBefore(base.Add(50 * time.Millisecond))
	if len(exp) != 1 || exp[0].Attempt != 2 {
		t.Fatalf("expired = %+v, want backup attempt 2", exp)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after backup expiry, want 1 (original still watched)", q.Len())
	}

	// RemoveAttempt retires one of two concurrent watches.
	q.AddConcurrent(3, 4, base.Add(200*time.Millisecond))
	q.RemoveAttempt(3, 1)
	exp = q.ExpireBefore(base.Add(time.Second))
	if len(exp) != 1 || exp[0].Attempt != 4 {
		t.Fatalf("expired = %+v, want only attempt 4", exp)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d at end, want 0", q.Len())
	}
}

// TestOvertimeQueueHeapCompaction drives heavy re-dispatch churn and
// checks the heap does not retain the superseded entries.
// Entries that fall due at the same instant expire in (id, attempt)
// order whatever order they were added in, so no caller needs to sort.
func TestOvertimeQueueEqualDeadlinesExpireInIDOrder(t *testing.T) {
	base := time.Unix(0, 0)
	due := base.Add(time.Second)
	type watch struct{ id, attempt int32 }
	want := []watch{{1, 1}, {1, 2}, {2, 5}, {3, 1}, {3, 4}, {9, 1}}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {3, 0, 5, 1, 4, 2}} {
		q := NewOvertimeQueue()
		q.Add(7, 1, base.Add(time.Millisecond)) // an earlier deadline still comes first
		for _, k := range order {
			q.AddConcurrent(want[k].id, want[k].attempt, due)
		}
		got := q.ExpireBefore(due)
		if len(got) != len(want)+1 || got[0].ID != 7 {
			t.Fatalf("insertion order %v: expired %+v", order, got)
		}
		for k, e := range got[1:] {
			if e.ID != want[k].id || e.Attempt != want[k].attempt {
				t.Fatalf("insertion order %v: expired[%d] = (%d, %d), want (%d, %d)",
					order, k+1, e.ID, e.Attempt, want[k].id, want[k].attempt)
			}
		}
	}
}

func TestOvertimeQueueHeapCompaction(t *testing.T) {
	base := time.Unix(1000, 0)
	q := NewOvertimeQueue()
	for i := 0; i < 10_000; i++ {
		q.Add(int32(i%8), int32(i+1), base.Add(time.Duration(i)*time.Millisecond))
	}
	q.mu.Lock()
	heapLen := len(q.h)
	q.mu.Unlock()
	if heapLen > 64 {
		t.Fatalf("heap holds %d entries for 8 live watches — stale entries not compacted", heapLen)
	}
	if q.Len() != 8 {
		t.Fatalf("Len = %d, want 8", q.Len())
	}
}

func TestOvertimeQueueClockExpire(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	q := NewOvertimeQueue()
	q.Add(1, 1, clock.Now().Add(30*time.Millisecond))
	if exp := q.ExpireBefore(clock.Now()); len(exp) != 0 {
		t.Fatalf("expired %+v before deadline", exp)
	}
	clock.Advance(30 * time.Millisecond)
	if exp := q.ExpireBefore(clock.Now()); len(exp) != 1 || exp[0].ID != 1 {
		t.Fatalf("ExpireBefore after Advance = %+v, want vertex 1", exp)
	}
}

// --- RegisterTable: speculative backups ---

func TestRegisterTableBackupEitherOrderWins(t *testing.T) {
	for _, backupFirst := range []bool{false, true} {
		rt := NewRegisterTable()
		orig, ok := rt.Register(5)
		if !ok {
			t.Fatal("Register refused fresh vertex")
		}
		backup, ok := rt.RegisterBackup(5)
		if !ok {
			t.Fatal("RegisterBackup refused vertex with live attempt")
		}
		if backup == orig {
			t.Fatal("backup attempt reused the original stamp")
		}
		if rt.LiveAttempts(5) != 2 {
			t.Fatalf("LiveAttempts = %d, want 2", rt.LiveAttempts(5))
		}
		first, second := orig, backup
		if backupFirst {
			first, second = backup, first
		}
		if !rt.Accept(5, first) {
			t.Fatalf("winner (attempt %d) rejected", first)
		}
		if rt.Accept(5, second) {
			t.Fatalf("loser (attempt %d) accepted — double apply", second)
		}
		if rt.Accept(5, first) {
			t.Fatal("duplicate of the winner accepted — double apply")
		}
		if _, ok := rt.Register(5); ok || rt.Outstanding() != 0 {
			t.Fatalf("vertex 5 registered again or outstanding (%d) after the race", rt.Outstanding())
		}
	}
}

func TestRegisterTableBackupRefusals(t *testing.T) {
	rt := NewRegisterTable()
	if _, ok := rt.RegisterBackup(9); ok {
		t.Fatal("backup granted for a vertex with no live attempt")
	}
	a, _ := rt.Register(9)
	rt.Accept(9, a)
	if _, ok := rt.RegisterBackup(9); ok {
		t.Fatal("backup granted for a finished vertex")
	}
}

func TestRegisterTableCancelAttempt(t *testing.T) {
	rt := NewRegisterTable()
	orig, _ := rt.Register(2)
	backup, _ := rt.RegisterBackup(2)

	if rem := rt.CancelAttempt(2, backup); rem != 1 {
		t.Fatalf("remaining after cancelling backup = %d, want 1", rem)
	}
	if rt.Accept(2, backup) {
		t.Fatal("cancelled backup accepted")
	}
	if !rt.Accept(2, orig) {
		t.Fatal("surviving original rejected")
	}

	rt2 := NewRegisterTable()
	a, _ := rt2.Register(3)
	if rem := rt2.CancelAttempt(3, a); rem != 0 {
		t.Fatalf("remaining after cancelling sole attempt = %d, want 0", rem)
	}
	if rt2.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d, want 0", rt2.Outstanding())
	}
}

// --- LeaseTable ---

func TestLeaseTableConcurrentAttempts(t *testing.T) {
	base := time.Unix(0, 0)
	lt := NewLeaseTable()
	lt.Grant(1, 10, 1, base)
	lt.Add(1, 11, 2, base.Add(time.Millisecond))

	if n := len(lt.Holders(1)); n != 2 {
		t.Fatalf("Holders = %d, want 2", n)
	}
	if lt.Load(10) != 1 || lt.Load(11) != 1 {
		t.Fatalf("loads = %d/%d, want 1/1", lt.Load(10), lt.Load(11))
	}
	// Releasing one attempt keeps the other.
	if _, ok := lt.ReleaseAttempt(1, 2); !ok {
		t.Fatal("ReleaseAttempt missed a live lease")
	}
	if lt.Load(11) != 0 {
		t.Fatalf("worker 11 still loaded after release: %d", lt.Load(11))
	}
	// Release retires everything.
	lt.Add(1, 11, 3, base)
	if got := len(lt.Release(1)); got != 2 {
		t.Fatalf("Release returned %d leases, want 2", got)
	}
	if lt.Len() != 0 {
		t.Fatalf("Len = %d, want 0", lt.Len())
	}
}

func TestLeaseTableGrantSupersedes(t *testing.T) {
	base := time.Unix(0, 0)
	lt := NewLeaseTable()
	lt.Grant(4, 1, 1, base)
	lt.Add(4, 2, 2, base)
	lt.Grant(4, 3, 3, base) // redistribution replaces both

	hs := lt.Holders(4)
	if len(hs) != 1 || hs[0].Worker != 3 || hs[0].Attempt != 3 {
		t.Fatalf("Holders after Grant = %+v, want single worker-3 lease", hs)
	}
	if lt.Load(1) != 0 || lt.Load(2) != 0 {
		t.Fatal("superseded workers still indexed")
	}
}

func TestLeaseTableRevokeWorkerLeavesPeers(t *testing.T) {
	base := time.Unix(0, 0)
	lt := NewLeaseTable()
	lt.Grant(1, 10, 1, base)
	lt.Add(1, 11, 2, base) // backup on another worker
	lt.Grant(2, 10, 3, base)

	revoked := lt.RevokeWorker(10)
	if len(revoked) != 2 {
		t.Fatalf("revoked %d leases, want 2", len(revoked))
	}
	hs := lt.Holders(1)
	if len(hs) != 1 || hs[0].Worker != 11 {
		t.Fatalf("vertex 1 holders after revoke = %+v, want worker 11's backup", hs)
	}
	if len(lt.Holders(2)) != 0 {
		t.Fatal("vertex 2 still leased after its only holder was revoked")
	}
}

// RevokeWorker hands the leases back in grant order: the requeue order
// after a member's death must not depend on map iteration. Vertex ids are
// scattered so that neither ascending ids nor a lucky map walk passes.
func TestLeaseTableRevokeWorkerInSeqOrder(t *testing.T) {
	base := time.Unix(0, 0)
	lt := NewLeaseTable()
	const n = 1000
	for i := 0; i < n; i++ {
		v := int32((i * 617) % n) // 617 is coprime to 1000: a permutation
		lt.Grant(v, 7, 1, base)
		lt.Grant(int32(n+i), 8, 1, base) // a peer's leases interleave the sequence
	}
	revoked := lt.RevokeWorker(7)
	if len(revoked) != n {
		t.Fatalf("revoked %d leases, want %d", len(revoked), n)
	}
	for i, l := range revoked {
		if want := int32((i * 617) % n); l.Vertex != want || l.Worker != 7 {
			t.Fatalf("revoked[%d] = %+v, want vertex %d in grant order", i, l, want)
		}
		if i > 0 && l.Seq <= revoked[i-1].Seq {
			t.Fatalf("revoked[%d].Seq = %d after %d", i, l.Seq, revoked[i-1].Seq)
		}
	}
	if lt.Load(7) != 0 || lt.Load(8) != n {
		t.Fatalf("loads after revoke = %d/%d, want 0/%d", lt.Load(7), lt.Load(8), n)
	}
}

func TestLeaseTableStealOrdering(t *testing.T) {
	base := time.Unix(0, 0)
	lt := NewLeaseTable()
	for v := int32(1); v <= 4; v++ {
		lt.Grant(v, 7, v, base.Add(time.Duration(v)))
	}
	ls := lt.WorkerLeases(7)
	if len(ls) != 4 {
		t.Fatalf("WorkerLeases = %d, want 4", len(ls))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].Seq <= ls[i-1].Seq {
			t.Fatalf("WorkerLeases not in grant order: %+v", ls)
		}
	}
	old := lt.OlderThan(base.Add(3))
	if len(old) != 2 || !old[0].Granted.Before(old[1].Granted) {
		t.Fatalf("OlderThan = %+v, want the two oldest leases oldest-first", old)
	}
}

// --- RuntimeProfile ---

func TestRuntimeProfileQuantile(t *testing.T) {
	p := NewRuntimeProfile(100)
	if _, ok := p.Quantile(0.95); ok {
		t.Fatal("empty profile reported a quantile")
	}
	for i := 1; i <= 100; i++ {
		p.Observe(time.Duration(i) * time.Millisecond)
	}
	if got, _ := p.Quantile(0); got != time.Millisecond {
		t.Fatalf("q0 = %v, want 1ms", got)
	}
	if got, _ := p.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("q1 = %v, want 100ms", got)
	}
	if got, _ := p.Quantile(0.5); got < 45*time.Millisecond || got > 55*time.Millisecond {
		t.Fatalf("median = %v, want ~50ms", got)
	}
}

func TestRuntimeProfileRingEviction(t *testing.T) {
	p := NewRuntimeProfile(8)
	for i := 0; i < 8; i++ {
		p.Observe(time.Hour) // old, slow phase
	}
	for i := 0; i < 8; i++ {
		p.Observe(time.Millisecond) // new, fast phase overwrites the ring
	}
	if got, _ := p.Quantile(1); got != time.Millisecond {
		t.Fatalf("max after eviction = %v, want 1ms (old phase forgotten)", got)
	}
	if p.Samples() != 8 {
		t.Fatalf("Samples = %d, want ring capacity 8", p.Samples())
	}
}

func TestRuntimeProfileThreshold(t *testing.T) {
	p := NewRuntimeProfile(64)
	if _, ok := p.Threshold(0.95, 2, time.Millisecond, 8); ok {
		t.Fatal("cold profile produced a threshold")
	}
	for i := 0; i < 16; i++ {
		p.Observe(10 * time.Millisecond)
	}
	th, ok := p.Threshold(0.95, 2, time.Millisecond, 8)
	if !ok || th != 20*time.Millisecond {
		t.Fatalf("threshold = %v, %v; want 20ms", th, ok)
	}
	th, _ = p.Threshold(0.95, 2, time.Second, 8)
	if th != time.Second {
		t.Fatalf("floored threshold = %v, want 1s", th)
	}
}

// Quantile edge cases: every q of an empty ring refuses, every q of a
// single sample or of identical samples is that sample, out-of-range q
// clamps instead of panicking, and a negative observation clamps to 0.
func TestRuntimeProfileQuantileEdges(t *testing.T) {
	empty := NewRuntimeProfile(4)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if d, ok := empty.Quantile(q); ok || d != 0 {
			t.Fatalf("empty ring q=%v = (%v, %v), want (0, false)", q, d, ok)
		}
	}

	single := NewRuntimeProfile(4)
	single.Observe(7 * time.Millisecond)
	if single.Samples() != 1 {
		t.Fatalf("Samples after one Observe = %d, want 1", single.Samples())
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if d, ok := single.Quantile(q); !ok || d != 7*time.Millisecond {
			t.Fatalf("single sample q=%v = (%v, %v), want (7ms, true)", q, d, ok)
		}
	}

	same := NewRuntimeProfile(8)
	for i := 0; i < 20; i++ { // wraps the ring with one value
		same.Observe(3 * time.Millisecond)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if d, ok := same.Quantile(q); !ok || d != 3*time.Millisecond {
			t.Fatalf("identical samples q=%v = (%v, %v), want (3ms, true)", q, d, ok)
		}
	}

	neg := NewRuntimeProfile(2)
	neg.Observe(-time.Second)
	if d, ok := neg.Quantile(1); !ok || d != 0 {
		t.Fatalf("negative observation q=1 = (%v, %v), want (0, true)", d, ok)
	}
}

// Threshold edge cases around the minSamples gate and the floor: the
// gate is >=, a zero floor passes the raw multiplied quantile through,
// and identical samples give an exactly scaled threshold at any q.
func TestRuntimeProfileThresholdEdges(t *testing.T) {
	p := NewRuntimeProfile(16)
	for i := 0; i < 3; i++ {
		p.Observe(4 * time.Millisecond)
	}
	if _, ok := p.Threshold(0.5, 2, 0, 4); ok {
		t.Fatal("threshold below minSamples must refuse")
	}
	p.Observe(4 * time.Millisecond)
	th, ok := p.Threshold(0.5, 2, 0, 4) // exactly at the gate
	if !ok || th != 8*time.Millisecond {
		t.Fatalf("threshold at minSamples = (%v, %v), want (8ms, true)", th, ok)
	}
	if th, _ := p.Threshold(0, 1, 0, 1); th != 4*time.Millisecond {
		t.Fatalf("q=0 multiplier=1 threshold = %v, want the sample itself", th)
	}
	if _, ok := NewRuntimeProfile(4).Threshold(0.95, 2, time.Hour, 0); ok {
		t.Fatal("empty profile with minSamples=0 must still refuse (no quantile)")
	}
}
