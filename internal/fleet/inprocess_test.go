package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
)

// testLink is an in-process member's link for these tests: the driver's
// end queues on a channel big enough that a send never waits, the
// worker's end delivers into the fleet on the calling goroutine.
type testLink struct {
	mu      sync.Mutex
	ch      chan comm.Message
	closed  bool
	deliver func(comm.Message)
}

func (l *testLink) Send(msg comm.Message) error { // the driver's end
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return comm.ErrClosed
	}
	l.ch <- msg
	return nil
}

func (l *testLink) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	return nil
}

// worker is the member's end of l.
func (l *testLink) worker() Conn { return testWorkerEnd{l} }

type testWorkerEnd struct{ l *testLink }

func (w testWorkerEnd) Send(msg comm.Message) error {
	w.l.deliver(msg)
	return nil
}

func (w testWorkerEnd) Recv() (comm.Message, error) {
	msg, ok := <-w.l.ch
	if !ok {
		return comm.Message{}, comm.ErrClosed
	}
	return msg, nil
}

func (w testWorkerEnd) Close() error { return w.l.Close() }

// joinTestMember joins one in-process member to f and serves it until the
// fleet dismisses it; the returned channel yields how Serve ended.
func joinTestMember(t *testing.T, f *Fleet[int32], name string) <-chan error {
	t.Helper()
	l := &testLink{ch: make(chan comm.Message, 1<<12)}
	id, deliver := f.Join(name, l)
	if id == 0 {
		t.Fatal("a fresh fleet refused an in-process member")
	}
	l.deliver = deliver
	done := make(chan error, 1)
	go func() {
		done <- Serve(context.Background(), l.worker(), id, func(msg comm.Message) (*core.TaskRunner[int32], error) {
			return attach(testBuilder, core.Config{Threads: 2}, msg)
		}, WorkerOptions{Name: name, HeartbeatInterval: 50 * time.Millisecond})
	}()
	return done
}

// TestJoinInProcessMembers: a fleet without a listener runs jobs on the
// members Join admits, through the same worker loop a TCP worker runs, and
// dismisses them on Close.
func TestJoinInProcessMembers(t *testing.T) {
	f, err := New[int32](Options{HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	served := []<-chan error{joinTestMember(t, f, "m0"), joinTestMember(t, f, "m1")}
	if live := f.Registry().Live(); live != 2 {
		t.Fatalf("%d live members, want the 2 joined", live)
	}
	names := []string{"edit", "nussinov"}
	results := make([]*Result[int32], len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		prob, _ := mustProblem(t, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Run(context.Background(), prob, JobRequest{Name: name, Proc: dag.Square(16)})
			if err != nil {
				t.Errorf("job %s: %v", name, err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, name := range names {
		if _, want := mustProblem(t, name); results[i] != nil {
			checkMatrix(t, name, results[i].Store.Assemble(), want)
		}
	}
	f.Close()
	for i, done := range served {
		if err := <-done; err != nil {
			t.Errorf("member %d ended with %v, want dismissed", i, err)
		}
	}
	if id, _ := f.Join("late", &testLink{ch: make(chan comm.Message, 1)}); id != 0 {
		t.Errorf("a closed fleet admitted member %d", id)
	}
}

// TestRetiredJobHoldsNoBlocks: Run hands a job's blocks to its caller; the
// job the fleet retains keeps its counts and trace — Snapshot lists it as
// done — and no block of its matrix.
func TestRetiredJobHoldsNoBlocks(t *testing.T) {
	f, err := New[int32](Options{Addr: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := NewHarness(testBuilder, f.Addr(), WorkerOptions{HeartbeatInterval: 50 * time.Millisecond, Run: core.Config{Threads: 1}})
	defer h.Close()
	if _, err := h.Add(context.Background()); err != nil {
		t.Fatal(err)
	}
	prob, want := mustProblem(t, "edit")
	res, err := f.Run(context.Background(), prob, JobRequest{Name: "edit", Proc: dag.Square(16)})
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "edit", res.Store.Assemble(), want)

	jb := jobByID(f, 1)
	if jb == nil {
		t.Fatal("the finished job is not retained")
	}
	if n := jb.Engine.Store().Len(); n != 0 {
		t.Fatalf("the retained job still holds %d blocks", n)
	}
	if got := jb.Engine.Store().Gather([]dag.Pos{{}}); got != nil {
		t.Fatalf("a gather from the handed-over store found %v", got)
	}
	snap := f.Snapshot()
	if len(snap.Jobs) != 1 || snap.Jobs[0].State != "done" || snap.Jobs[0].Done != snap.Jobs[0].Total || snap.Jobs[0].Stats.Tasks != 16 {
		t.Fatalf("snapshot lists %+v, want the job done with its 16 tasks", snap.Jobs)
	}
	if len(f.TraceEvents("edit")) == 0 {
		t.Fatal("the retained job lost its trace")
	}
}
