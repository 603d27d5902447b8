package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestRegistryLifecycle(t *testing.T) {
	tr := trace.New()
	r := NewRegistry(tr, nil)

	a := r.Admit("", "1.2.3.4:5")
	b := r.Admit("custom", "6.7.8.9:0")
	if a.ID != 1 || b.ID != 2 {
		t.Fatalf("ids = %d,%d, want 1,2", a.ID, b.ID)
	}
	if a.Name != "worker-1" || b.Name != "custom" {
		t.Fatalf("names = %q,%q", a.Name, b.Name)
	}
	if got := r.Live(); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}

	// One silent interval: suspect. A beat recovers. Miss intervals: dead.
	interval, miss := 100*time.Millisecond, 3
	now := time.Now()
	if died := r.Sweep(now.Add(150*time.Millisecond), interval, miss); len(died) != 0 {
		t.Fatalf("early sweep declared %v dead", died)
	}
	if m := r.Members()[0]; m.State != StateSuspect {
		t.Fatalf("member 1 = %v after one silent interval, want suspect", m.State)
	}
	r.Beat(a.ID)
	if m := r.Members()[0]; m.State != StateActive {
		t.Fatalf("member 1 = %v after beat, want active", m.State)
	}
	died := r.Sweep(now.Add(time.Hour), interval, miss)
	if len(died) != 2 {
		t.Fatalf("full-silence sweep declared %v dead, want both", died)
	}
	if r.Live() != 0 {
		t.Fatalf("Live = %d after sweep, want 0", r.Live())
	}
	// Dead is terminal: beats and re-marks are no-ops.
	r.Beat(a.ID)
	if m := r.Members()[0]; m.State != StateDead {
		t.Fatalf("dead member revived by beat: %v", m.State)
	}
	if r.MarkDead(a.ID) {
		t.Fatal("MarkDead on a dead member reported a transition")
	}
	if r.MarkLeft(a.ID) {
		t.Fatal("MarkLeft on a dead member reported a transition")
	}

	c := r.Admit("", "x")
	if c.ID != 3 {
		t.Fatalf("incarnation reused: id = %d, want 3", c.ID)
	}
	if !r.MarkLeft(c.ID) {
		t.Fatal("MarkLeft on a live member failed")
	}

	joins, leaves, deaths, _, _ := r.MembershipCounts()
	if joins != 3 || leaves != 1 || deaths != 2 {
		t.Fatalf("counters joins=%d leaves=%d deaths=%d, want 3,1,2", joins, leaves, deaths)
	}
	s := r.Metrics()
	if s.States["dead"] != 2 || s.States["left"] != 1 {
		t.Fatalf("metrics states = %v", s.States)
	}

	// Every transition must be visible in the trace: three admissions
	// plus one suspect recovery ("active"), two suspicions from the first
	// sweep, two deaths, one leave.
	counts := map[string]int{}
	for _, e := range tr.Events() {
		if e.Kind == trace.EvMember {
			counts[e.Label]++
		}
	}
	if counts["active"] != 4 || counts["suspect"] != 2 || counts["dead"] != 2 || counts["left"] != 1 {
		t.Fatalf("trace transition counts = %v, want active:4 suspect:2 dead:2 left:1", counts)
	}
}

// TestRegistryWaitLive: the quorum wait returns at the n-th admission, a
// member that died before the quorum does not count toward it, and an
// expired context says how many of n had joined.
func TestRegistryWaitLive(t *testing.T) {
	r := NewRegistry(nil, nil)
	ctx := context.Background()
	if err := r.WaitLive(ctx, 0); err != nil {
		t.Fatalf("WaitLive(0) on an empty registry = %v", err)
	}

	quorum := make(chan error, 1)
	go func() { quorum <- r.WaitLive(ctx, 2) }()
	stillWaiting := func(when string) {
		t.Helper()
		select {
		case err := <-quorum:
			t.Fatalf("WaitLive(2) returned %v %s", err, when)
		default:
		}
	}
	a := r.Admit("a", "test")
	stillWaiting("after one admission")
	r.MarkDead(a.ID)
	r.Admit("b", "test")
	// Two admissions, one live member: whenever the waiter looks, it must
	// count one. Its own deadline-bound twin proves it.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	err := r.WaitLive(short, 2)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "1 of 2 workers joined") {
		t.Fatalf("WaitLive past its deadline = %v, want a deadline error saying 1 of 2 joined", err)
	}
	stillWaiting("with a dead member making up the count")
	r.Admit("c", "test")
	if err := <-quorum; err != nil {
		t.Fatalf("WaitLive(2) at the quorum = %v", err)
	}
	if got := r.Live(); got != 2 {
		t.Fatalf("Live = %d at the quorum, want 2", got)
	}
}
