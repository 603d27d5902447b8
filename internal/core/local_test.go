package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/engine"
)

// TestInProcessMemberAttachesEndedJob: a job that ends (Driver.End) after
// the driver queued its spec frame and task on an in-process member's link,
// but before the member read them, still attaches — from the Job handed over
// with the spec frame, whose counters its runner counts into — and the
// member's late result counts as stale. The member stays live and computes
// the next job.
func TestInProcessMemberAttachesEndedJob(t *testing.T) {
	reg := core.NewRegistry(nil, nil)
	d := core.NewDriver[int32](core.DriverConfig{Pool: engine.PoolConfig{Batch: 1, CheckInterval: time.Hour}, Registry: reg})
	defer d.Close()
	w := d.JoinLocal("m", core.Config{Threads: 1})
	if w == nil {
		t.Fatal("a fresh driver refused an in-process member")
	}
	member := reg.Members()[0].ID
	e := dp.NewEditDistance(dp.RandomDNA(16, 1), dp.RandomDNA(16, 2))
	start := func(id int32) *core.Job[int32] {
		jb, err := d.NewJob(id, e.Problem(), dag.Square(16), core.PolicyDynamic, engine.JobParams{}, engine.Config[int32]{}) // one vertex
		if err != nil {
			t.Fatal(err)
		}
		jb.Label = fmt.Sprintf("job %d", id)
		if err := d.Start(jb); err != nil {
			t.Fatal(err)
		}
		return jb
	}

	// The member is not served yet: an idle frame delivered on its behalf
	// has its sender ship the spec frame and the task, which wait on the
	// link while the job ends, and its job-end frame queues behind them.
	ended := start(1)
	d.Deliver(member, comm.Message{Kind: comm.KindIdle})
	shipped := time.NewTimer(30 * time.Second)
	defer shipped.Stop()
	for progressed := d.Progress(); ended.RunStats().Messages == 0; progressed = d.Progress() {
		select {
		case <-progressed:
		case <-shipped.C:
			t.Fatal("the driver shipped the member nothing")
		}
	}
	d.End(ended, context.Canceled)
	served := make(chan error, 1)
	go func() { served <- w.Serve(context.Background()) }()

	next := start(2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Wait(ctx, next); err != nil {
		t.Fatalf("the next job: %v", err)
	}
	// The link is ordered: the ended job's result was delivered first.
	if _, stale := d.Counts(); stale != 1 {
		t.Errorf("%d stale results, want the ended job's one", stale)
	}
	if got := ended.RunStats().SubTasks; got != 1 {
		t.Errorf("the ended job's runners counted %d sub-tasks, want its one block", got)
	}
	if !errors.Is(ended.Err(), context.Canceled) {
		t.Errorf("the ended job ended with %v, want its End's error", ended.Err())
	}
	equalMatrices(t, "next job", next.Engine.Store().Assemble(), e.Sequential())
	if live := reg.Live(); live != 1 {
		t.Errorf("%d live members, want the member still live", live)
	}
	d.Close()
	if err := <-served; err != nil {
		t.Fatalf("the member ended with %v, want dismissed", err)
	}
}

// TestLocalClosedLink: a closed in-process link still hands the worker what
// was queued before it closed, then comm.ErrClosed, and the driver's end
// refuses a send.
func TestLocalClosedLink(t *testing.T) {
	l, to := core.NewLocal(func(comm.Message) {})
	queued := []comm.Kind{comm.KindTask, comm.KindEnd}
	for _, k := range queued {
		if err := to.Send(comm.Message{Kind: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := to.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range queued {
		if msg, err := l.Recv(); err != nil || msg.Kind != want {
			t.Fatalf("Recv = %v, %v; want the queued %v frame", msg.Kind, err, want)
		}
	}
	if _, err := l.Recv(); !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("Recv on a closed, drained link = %v, want comm.ErrClosed", err)
	}
	if err := to.Send(comm.Message{Kind: comm.KindHeartbeat}); !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("Send on a closed link = %v, want comm.ErrClosed", err)
	}
}
