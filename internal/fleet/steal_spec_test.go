package fleet

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
)

// insertJob starts a hand-built job on a running fleet, the way Fleet.Run
// would, without blocking on completion. What its engine's Frontier
// still hands out is queued: a test that leases by hand takes the
// frontier first.
func insertJob(t *testing.T, f *Fleet[int32], jb *core.Job[int32]) {
	t.Helper()
	if err := f.d.Start(jb); err != nil {
		t.Fatal(err)
	}
}

// jobByID returns the running or retained job with the given id.
func jobByID(f *Fleet[int32], id int32) *core.Job[int32] {
	for _, r := range f.d.Jobs() {
		if r.Job.ID == id {
			return r.Job
		}
	}
	return nil
}

// readyLen is the number of vertices queued across the fleet's jobs (the
// tests here run one).
func readyLen(f *Fleet[int32]) int {
	return f.Snapshot().QueueDepth
}

// drawOne takes the next batch the way a sender would, without blocking;
// the fleets here run with the default batch of one vertex.
func drawOne(t *testing.T, f *Fleet[int32]) []int32 {
	t.Helper()
	var ids []int32
	var ok bool
	f.d.WithPool(func(p *engine.Pool[int32]) {
		_, ids, ok = p.Draw(0) // every fleet job draws LIFO: any member
	})
	if !ok || len(ids) != 1 {
		t.Fatalf("draw = (%v, %v), want one queued vertex", ids, ok)
	}
	return ids
}

// drainReady draws until nothing is queued and returns what was: vertices
// the test schedules by hand, or not at all.
func drainReady(f *Fleet[int32]) []int32 {
	var all []int32
	f.d.WithPool(func(p *engine.Pool[int32]) {
		for {
			_, ids, ok := p.Draw(0) // every fleet job draws LIFO: any member
			if !ok {
				return
			}
			all = append(all, ids...)
		}
	})
	return all
}

// TestFleetStealFeedsHungryMember drives hunger beacons directly: a hungry
// idle member must trigger a steal of the tail half of the most loaded
// member's undispatched backlog — and only when there is no queued work,
// the beggar is truly idle, and the victim's entries are not racing a
// backup. A graceful leave then revokes the victim's remaining leases.
func TestFleetStealFeedsHungryMember(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0", Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prob, _ := mustProblem(t, "edit")
	jb, err := f.newJob(1, prob, JobRequest{Name: "steal"})
	if err != nil {
		t.Fatal(err)
	}
	// The test leases by hand: nothing is queued but what the steals move.
	if _, err := jb.Engine.Frontier(); err != nil {
		t.Fatal(err)
	}
	insertJob(t, f, jb)

	victim := f.reg.Admit("victim", "test")
	beggar := f.reg.Admit("beggar", "test")
	steals := &jb.Engine.Counters().Steals
	now := time.Now() // the fleet runs on the wall clock
	lease := func(v int32, slot int) {
		t.Helper()
		if _, out := jb.Engine.Lease(victim.ID, v, slot, now); out != engine.Granted {
			t.Fatalf("lease of vertex %d = %v, want Granted", v, out)
		}
	}

	// A 1-deep backlog is never split.
	lease(0, 0)
	f.d.Deliver(beggar.ID, comm.Message{Kind: comm.KindHunger})
	if got := steals.Load(); got != 0 {
		t.Fatalf("steals = %d, want no steal from a 1-deep backlog", got)
	}
	for v := int32(1); v < 4; v++ {
		lease(v, int(v))
	}

	// A loaded member's own hunger is ignored.
	f.d.Deliver(victim.ID, comm.Message{Kind: comm.KindHunger})
	if got := steals.Load(); got != 0 {
		t.Fatalf("steals = %d after the victim begged from itself", got)
	}

	// The idle beggar gets the newer half of the victim's backlog.
	f.d.Deliver(beggar.ID, comm.Message{Kind: comm.KindHunger})
	if got := steals.Load(); got != 2 {
		t.Fatalf("steals = %d, want the tail half (2) of a 4-deep backlog", got)
	}
	if got := readyLen(f); got != 2 {
		t.Fatalf("ready = %d vertices after the steal, want 2", got)
	}
	if got := jb.Engine.Load(victim.ID); got != 2 {
		t.Fatalf("victim load = %d after the steal, want 2", got)
	}

	// With work queued, hunger is a no-op: the beggar's sender will draw
	// the requeued vertices without help.
	f.d.Deliver(beggar.ID, comm.Message{Kind: comm.KindHunger})
	if got := steals.Load(); got != 2 {
		t.Fatalf("steals = %d, want no re-steal while work is queued", got)
	}

	// A graceful leave revokes the remaining leases and requeues them.
	f.d.Deliver(victim.ID, comm.Message{Kind: comm.KindLeave})
	if got := jb.Engine.Load(victim.ID); got != 0 {
		t.Fatalf("victim still holds %d leases after leaving", got)
	}
	if got := readyLen(f); got != 4 {
		t.Fatalf("ready = %d after the leave revocation, want all 4", got)
	}
	if _, _, _, revoked, reassigned := f.reg.MembershipCounts(); revoked != 2 || reassigned != 2 {
		t.Fatalf("registry counts %d revoked, %d reassigned; want 2 and 2", revoked, reassigned)
	}
	// Leaving twice is idempotent.
	f.d.Deliver(victim.ID, comm.Message{Kind: comm.KindLeave})
}

// TestFleetSpeculationFakeClock verifies the per-job straggler detector:
// no flag below the profile threshold, exactly one flag past it, refusal
// of a self-backup, and speculation accounting when the backup's holder
// leaves. Mirrors the single-job master's test, scoped to one job of a
// fleet.
func TestFleetSpeculationFakeClock(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: time.Hour,
		CheckInterval:     time.Hour, // the test is the only caller of the detector
		SpecFloor:         time.Second,
		TaskTimeout:       time.Hour, // overtime must not race the detector
		Speculate:         true,
		Clock:             fake,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Nussinov's block DAG starts from a whole diagonal of roots: one of
	// them plays the straggler while the others warm the profile.
	prob, _ := mustProblem(t, "nussinov")
	jb, err := f.newJob(1, prob, JobRequest{Name: "spec"})
	if err != nil {
		t.Fatal(err)
	}
	roots, err := jb.Engine.Frontier()
	if err != nil || len(roots) < 8 {
		t.Fatalf("frontier = (%v, %v), want at least 8 roots", roots, err)
	}
	// The test leases by hand: nothing is queued but what the detector flags.
	insertJob(t, f, jb)
	runner, err := core.NewTaskRunner(prob, core.Config{ProcPartition: jb.Engine.Graph().Geom.Block, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}

	w1 := f.reg.Admit("w1", "test")

	// Cold profile: no threshold, no speculation.
	f.d.Tick(fake.Now())
	if got := readyLen(f); got != 0 {
		t.Fatalf("cold profile flagged %d vertices", got)
	}

	// Warm the profile with eight completions of 2s each: p95 = 2s,
	// threshold = 2 * 2s = 4s (defaults). What they unlock is left unqueued.
	warm := append([]int32(nil), roots[1:]...)
	for i := 0; i < 8; i++ {
		u := warm[0]
		a, out := jb.Engine.Lease(w1.ID, u, 0, fake.Now())
		if out != engine.Granted {
			t.Fatalf("warm-up lease of vertex %d = %v", u, out)
		}
		result := computeVertex(t, jb, runner, u)
		fake.Advance(2 * time.Second)
		deliverResult(f, w1.ID, jb, u, a, result)
		warm = append(warm[1:], drainReady(f)...)
	}

	v := roots[0]
	if _, out := jb.Engine.Lease(w1.ID, v, 0, fake.Now()); out != engine.Granted {
		t.Fatalf("original lease = %v, want Granted", out)
	}

	fake.Advance(3 * time.Second)
	f.d.Tick(fake.Now())
	if got := readyLen(f); got != 0 {
		t.Fatalf("speculated on a 3s-old attempt below the 4s threshold (%d flagged)", got)
	}

	fake.Advance(2 * time.Second) // age 5s > threshold
	f.d.Tick(fake.Now())
	if got := readyLen(f); got != 1 {
		t.Fatalf("flagged %d vertices past the threshold, want 1", got)
	}

	// The holder must not back itself up: its draw leases nothing, the
	// flag is kept, and the vertex is back on the stack for another member
	// at once (no waiting for the next control tick), the idle token spent.
	lease := func(member int) (grants []engine.Grant, spent bool) {
		t.Helper()
		ids := drawOne(t, f)
		if ids[0] != v {
			t.Fatalf("drew vertex %d, want the flagged %d", ids[0], v)
		}
		f.d.WithPool(func(p *engine.Pool[int32]) {
			grants, spent = p.Lease(jb.ID, member, ids, fake.Now())
		})
		return grants, spent
	}
	if grants, spent := lease(w1.ID); len(grants) != 0 || !spent {
		t.Fatalf("self-backup draw = (%v, spent %v), want nothing leased and the token spent", grants, spent)
	}
	if got := jb.Engine.LiveAttempts(v); got != 1 {
		t.Fatalf("LiveAttempts = %d after refused self-backup, want 1", got)
	}
	if got := readyLen(f); got != 1 {
		t.Fatalf("ready = %d after the refused backup was requeued, want 1", got)
	}
	// The detector leaves the requeued backup alone on later ticks.
	fake.Advance(time.Second)
	f.d.Tick(fake.Now())
	if got := readyLen(f); got != 1 {
		t.Fatalf("detector double-flagged a requeued backup (%d ready)", got)
	}
	// The flag survived the refusal: the next member's draw is a backup.
	w2 := f.reg.Admit("w2", "test")
	if grants, _ := lease(w2.ID); len(grants) != 1 || jb.Engine.Counters().Speculated.Load() != 1 {
		t.Fatalf("second member's draw = %v with %d backups counted, want one backup", grants, jb.Engine.Counters().Speculated.Load())
	}
	if got := jb.Engine.LiveAttempts(v); got != 2 {
		t.Fatalf("LiveAttempts = %d, want 2 (original + backup)", got)
	}

	// While a race is live the detector leaves the vertex alone.
	fake.Advance(10 * time.Second)
	f.d.Tick(fake.Now())
	if got := readyLen(f); got != 0 {
		t.Fatalf("detector flagged a vertex already racing a backup (%d ready)", got)
	}

	// The backup holder leaves: the wasted speculation is accounted to
	// this job and the original attempt survives.
	f.d.Deliver(w2.ID, comm.Message{Kind: comm.KindLeave})
	if got := jb.Engine.Counters().SpecWasted.Load(); got != 1 {
		t.Fatalf("specWasted = %d after the backup holder left, want 1", got)
	}
	if got := jb.Engine.LiveAttempts(v); got != 1 {
		t.Fatalf("LiveAttempts = %d after the backup died, want the original alone", got)
	}
}

// TestFleetAdmitRejectsNonFleetWorker pins the join contract: a peer that
// does not say Fleet in its hello — a fixed rank's comm.DialWorker — is
// refused with a hint naming the worker that does. And a
// protocol-v4 binary's elastic worker, whose hello is a gob value
// (same fields plus an Elastic flag this build has no field for), is not
// read at all: the connection closes with nothing sent, no hang and no
// reflection over its bytes.
func TestFleetAdmitRejectsNonFleetWorker(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, _, err = comm.DialHello(f.Addr(), comm.Hello{Rank: 1, Name: "fixed"}, 5*time.Second)
	if want := "this master runs a fleet; join it with an easyhps-worker of the same build"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal = %v, want %q", err, want)
	}

	c, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type v4ElasticJoin struct {
		Version int
		Elastic bool
		Name    string
	}
	if err := gob.NewEncoder(c).Encode(v4ElasticJoin{Version: 4, Elastic: true, Name: "old"}); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var nerr net.Error
	if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil || (errors.As(err, &nerr) && nerr.Timeout()) {
		t.Fatalf("v4 elastic worker read %d bytes, %v; want the connection closed with nothing sent", n, err)
	}
	if joins, _, _, _, _ := f.Registry().MembershipCounts(); joins != 0 {
		t.Fatalf("joins = %d, want the refused worker not admitted", joins)
	}
	if f.Registry() == nil {
		t.Fatal("Registry() = nil")
	}
	if jb := jobByID(f, 99); jb != nil {
		t.Fatalf("jobByID(99) = %v, want nil", jb)
	}
}

// TestFleetRunCancelAndClose covers the submission edges: a cancelled
// context fails the job (retired as failed), and a closed fleet refuses
// new submissions outright.
func TestFleetRunCancelAndClose(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	prob, _ := mustProblem(t, "ckpt")

	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel as soon as the job is admitted: the driver reports progress
		// right after the job lands in the table, so the progress wait
		// replaces any fixed sleep.
		for {
			progressed := f.d.Progress()
			if jobByID(f, 1) != nil {
				break
			}
			select {
			case <-progressed:
			case <-cctx.Done():
			}
		}
		cancel()
	}()
	if _, err := f.Run(cctx, prob, JobRequest{Name: "cancelled"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
	snap := f.Snapshot()
	if snap.States["failed"] != 1 {
		t.Fatalf("job states = %v, want the cancelled job retained as failed", snap.States)
	}
	if jb := jobByID(f, 1); jb == nil {
		t.Fatal("cancelled job not queryable by id")
	}

	f.Close()
	if _, err := f.Run(context.Background(), prob, JobRequest{Name: "late"}); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Run after Close = %v, want core.ErrClosed", err)
	}
	if err := RunWorker[int32](context.Background(), nil, WorkerOptions{Addr: f.Addr()}); err == nil {
		t.Fatal("RunWorker accepted a nil builder")
	}
}
