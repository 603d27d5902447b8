package core

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/sched"
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

// drawFor parks m at the back of the queue and walks, as a step does for
// a member without a sender: what the walk draws for m, if it reaches m.
func drawFor(d *Driver[int32], m *member) (*Job[int32], []int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m.parked = true
	d.parked = append(d.parked, m)
	got, dr := d.walk()
	return dr.jb, dr.ids, got == m
}

// TestDriverStoppedMemberHandsDrawBack pins the sender's exit when its
// member goes away with a draw in hand: the draw is handed back whole —
// nothing leased to the dead member, the quota room reopened for the next
// member the walk draws for.
func TestDriverStoppedMemberHandsDrawBack(t *testing.T) {
	d := NewDriver[int32](DriverConfig{Pool: engine.PoolConfig{Batch: 8, CheckInterval: time.Hour}, Registry: NewRegistry(nil, nil)})
	defer d.Close()
	jb := triangularJob(d, engine.JobParams{Quota: 3})
	startJob(t, d, jb)
	const roots = 4

	m := &member{id: 1, stop: make(chan struct{})}
	got, ids, ok := drawFor(d, m)
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
	other := &member{id: 2, stop: make(chan struct{})}
	if _, ids, ok := drawFor(d, other); !ok || len(ids) != 3 {
		t.Fatalf("second member's draw = (%v, %v), want the reopened room of 3", ids, ok)
	}
	if _, _, ok := drawFor(d, m); ok {
		t.Fatal("a member drew past the quota")
	}
}

// TestDriverRevokeUndrawsHandedDraw: a member revoked while its sender has
// not taken the draw the walk handed it leaves the parked queue, and the
// draw goes back whole — nothing leased, the quota room reopened — for the
// members behind it.
func TestDriverRevokeUndrawsHandedDraw(t *testing.T) {
	reg := NewRegistry(nil, nil)
	d := NewDriver[int32](DriverConfig{Pool: engine.PoolConfig{Batch: 8, CheckInterval: time.Hour}, Registry: reg})
	defer d.Close()
	jb := triangularJob(d, engine.JobParams{Quota: 3})
	startJob(t, d, jb)
	const roots = 4
	var ms []*member
	for range 2 {
		id := reg.Admit("m", "test").ID
		_, link := NewLocal(func(comm.Message) {})
		if !d.AddMember(id, link, false) {
			t.Fatal("a fresh driver refused a member")
		}
		d.mu.Lock()
		m := d.members[id]
		m.sender = true // handed its draw, which nobody takes
		d.mu.Unlock()
		d.feed(m)
		ms = append(ms, m)
	}
	d.mu.Lock()
	_, handed := d.handed[ms[0]]
	parked := slices.Clone(d.parked)
	d.mu.Unlock()
	if !handed || len(parked) != 1 || parked[0] != ms[1] {
		t.Fatalf("after the walk: first member handed %v, queue %v; want it handed the quota and the second parked", handed, parked)
	}
	d.Down(ms[0].id, nil)
	d.mu.Lock()
	_, handed = d.handed[ms[0]]
	dr, second := d.handed[ms[1]]
	queued := len(d.parked)
	d.mu.Unlock()
	if handed || !second || len(dr.ids) != 3 || queued != 0 {
		t.Fatalf("after the revocation: first handed %v, second handed %v of %d, %d parked; want the quota of 3 handed to the second alone",
			handed, dr.ids, len(dr.ids), queued)
	}
	if a := d.Jobs()[0].Account; a.Ready != roots-3 || a.Inflight != 3 || jb.Stats().Dispatches != 0 {
		t.Fatalf("after the revocation: %d ready, %d in flight, %d dispatches; want %d, 3, 0",
			a.Ready, a.Inflight, jb.Stats().Dispatches, roots-3)
	}
}

// TestDriverDispatchRetireOrdering pins the per-connection frame order
// around retirement: a batch racing the job's finish is dropped with its
// fresh lease unwound rather than sent, so a worker always sees
// JobSpec … tasks … JobEnd — never a task after the detach (which would
// kill the worker) and never a re-attach after JobEnd (which would leak
// the job's kernel state on the worker).
func TestDriverDispatchRetireOrdering(t *testing.T) {
	d := NewDriver[int32](DriverConfig{Pool: engine.PoolConfig{CheckInterval: time.Hour}, Registry: NewRegistry(nil, nil), RetainJobs: 1})
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

// TestInProcessMemberNeverSwept: an in-process member cannot fall silent
// apart from its process, so the heartbeat sweep passes it over — it is
// still live after a tick more than HeartbeatMiss silent intervals on —
// while a socket member under the same silence is declared dead.
func TestInProcessMemberNeverSwept(t *testing.T) {
	clock := sched.NewFakeClock(time.Unix(0, 0))
	reg := NewRegistry(nil, clock)
	d := NewDriver[int32](DriverConfig{
		Pool:              engine.PoolConfig{CheckInterval: time.Second},
		Clock:             clock,
		Registry:          reg,
		HeartbeatInterval: time.Second,
		HeartbeatMiss:     3,
	})
	defer d.Close()
	local := d.JoinLocal("local", Config{})
	remote := reg.Admit("remote", "127.0.0.1:1").ID
	_, link := NewLocal(func(comm.Message) {})
	if local == nil || !d.AddMember(remote, link, false) {
		t.Fatal("a fresh driver refused a member")
	}
	clock.Advance(10 * time.Second)
	d.Tick(clock.Now())
	states := make(map[string]MemberState)
	for _, m := range reg.Members() {
		states[m.Name] = m.State
	}
	if states["local"] != StateActive || states["remote"] != StateDead || reg.Live() != 1 {
		t.Fatalf("after 10 silent intervals: in-process member %v, socket member %v, %d live; want active, dead, 1",
			states["local"], states["remote"], reg.Live())
	}
}
