package core

import (
	"net"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// triangularJob is a 4×4-block triangular job (Nussinov's DAG shape): ten
// vertices, the four diagonal ones computable from the start. The driver
// never reads cells, so the engine needs no kernel.
func triangularJob(d *Driver[int32], params engine.JobParams) *Job[int32] {
	eng := engine.New(dag.Triangular{}, matrix.BinaryCodec[int32]{}, dag.Square(64), dag.Square(16),
		engine.Config[int32]{TaskTimeout: time.Hour})
	return &Job[int32]{ID: 1, Name: "t", Label: "core: job t", Engine: eng, Params: d.pool.Params(params), Meta: []byte("{}")}
}

func startJob(t *testing.T, d *Driver[int32], jb *Job[int32]) {
	t.Helper()
	if err := d.Start(jb); err != nil {
		t.Fatal(err)
	}
}

// drawOne takes the next batch the way a sender would, without blocking.
func drawOne(t *testing.T, d *Driver[int32]) []int32 {
	t.Helper()
	var ids []int32
	var ok bool
	d.WithPool(func(p *engine.Pool[int32]) { _, ids, ok = p.Draw(0) })
	if !ok || len(ids) != 1 {
		t.Fatalf("draw = (%v, %v), want one queued vertex", ids, ok)
	}
	return ids
}

// TestDriverStoppedMemberHandsDrawBack pins the sender's two exits when its
// member goes away: a draw already in hand is handed back whole — nothing
// leased to the dead member, the quota room reopened — and the next wait
// for work returns at once instead of blocking at quota.
func TestDriverStoppedMemberHandsDrawBack(t *testing.T) {
	d := NewDriver[int32](DriverConfig{Pool: engine.PoolConfig{Batch: 8, CheckInterval: time.Hour}})
	defer d.Close()
	jb := triangularJob(d, engine.JobParams{Quota: 3})
	startJob(t, d, jb)
	const roots = 4

	m := &member{id: 1, stop: make(chan struct{})}
	got, ids, ok := d.nextBatch(m, true)
	if !ok || got != jb || len(ids) != 3 {
		t.Fatalf("draw = (%v, %v), want a quota-clamped batch of 3", ids, ok)
	}
	close(m.stop)
	if !d.dispatch(m, jb, ids) {
		t.Fatal("dispatch to a stopped member asked for another draw")
	}
	if a := d.Jobs()[0].Account; a.Ready != roots || a.Inflight != 0 || jb.Stats().Dispatches != 0 {
		t.Fatalf("after the hand-back: %d ready, %d in flight, %d dispatches; want %d, 0, 0",
			a.Ready, a.Inflight, jb.Stats().Dispatches, roots)
	}
	// At quota a live member's sender waits; a stopped member's must not.
	other := &member{id: 2, stop: make(chan struct{})}
	if _, ids, ok := d.nextBatch(other, true); !ok || len(ids) != 3 {
		t.Fatalf("second member's draw = (%v, %v), want the reopened room of 3", ids, ok)
	}
	if _, _, ok := d.nextBatch(m, true); ok {
		t.Fatal("stopped member still drew a batch")
	}
}

// TestDriverDispatchRetireOrdering pins the per-connection frame order
// around retirement: a batch racing the job's finish is dropped with its
// fresh lease unwound rather than sent, so a worker always sees
// JobSpec … tasks … JobEnd — never a task after the detach (which would
// kill the worker) and never a re-attach after JobEnd (which would leak
// the job's kernel state on the worker).
func TestDriverDispatchRetireOrdering(t *testing.T) {
	d := NewDriver[int32](DriverConfig{Pool: engine.PoolConfig{CheckInterval: time.Hour}, RetainJobs: 1})
	defer d.Close()
	jb := triangularJob(d, engine.JobParams{})
	startJob(t, d, jb)

	// A real socket pair so the dispatch and detach frames cross a live
	// ordered connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvCh := make(chan *comm.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		srvCh <- comm.NewConn(c)
	}()
	wc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	worker := comm.NewConn(wc)
	defer worker.Close()
	sc := <-srvCh
	defer sc.Close()
	m := &member{id: 1, link: sc, idle: make(chan struct{}, 1), stop: make(chan struct{}), known: d.cfg.Cache.NewPeerSet(), attached: make(map[int32]bool)}
	d.mu.Lock()
	d.members[1] = m
	d.mu.Unlock()

	first, second := drawOne(t, d), drawOne(t, d)
	if !d.dispatch(m, jb, first) {
		t.Fatal("dispatch refused a live job")
	}
	for _, want := range []comm.Kind{comm.KindJobSpec, comm.KindTask} {
		msg, err := worker.Recv()
		if err != nil || msg.Kind != want {
			t.Fatalf("worker got (%v, %v), want kind %v", msg.Kind, err, want)
		}
	}

	// Race the serialized re-check: hold the attach lock so a second
	// dispatch blocks right before its send, finish the job inside that
	// window, then let it through — the batch must be dropped and the
	// lease it granted unwound, not sent after the detach.
	m.attachMu.Lock()
	dispatched := make(chan bool, 1)
	go func() { dispatched <- d.dispatch(m, jb, second) }()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for progressed := d.Progress(); jb.Engine.Inflight() != 2; progressed = d.Progress() {
		select {
		case <-progressed:
		case <-timeout.C:
			t.Fatal("timed out waiting for the second dispatch's lease")
		}
	}
	jb.finish(nil, d.clock.Now())
	m.attachMu.Unlock()
	if <-dispatched {
		t.Fatal("dispatch shipped a batch for a finishing job")
	}
	if got := jb.Engine.LiveAttempts(second[0]); got != 0 {
		t.Fatalf("dropped batch left %d live attempts", got)
	}
	if got := jb.Engine.Inflight(); got != 1 {
		t.Fatalf("leases = %d after the dropped batch, want only the first dispatch's", got)
	}

	// Retirement detaches: the very next frame is JobEnd, and a late
	// dispatch afterwards neither sends nor re-attaches.
	d.End(jb, nil) // already ended: only the retirement is left
	msg, err := worker.Recv()
	if err != nil || msg.Kind != comm.KindJobEnd {
		t.Fatalf("worker got (%v, %v) after retirement, want JobEnd with no interleaved task", msg.Kind, err)
	}
	if rows := d.Jobs(); len(rows) != 1 || rows[0].Job != jb || rows[0].Account.Inflight != 0 || jb.Err() != nil {
		t.Fatalf("after retirement the driver lists %+v, want the job retained as done with none in flight", rows)
	}
	if d.dispatch(m, jb, second) {
		t.Fatal("dispatch shipped a batch for a retired job")
	}
	m.attachMu.Lock()
	attached := m.attached[jb.ID]
	m.attachMu.Unlock()
	if attached {
		t.Fatal("retired job still attached to the member")
	}
}
