package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// serveMember serves a worker loop over an in-process link, as a test
// drives it: the harness attaches job 0 by its spec frame and refuses any
// other job's, the frames the member sends arrive on the returned channel,
// the driver's end is the returned link, and the loop's error arrives on
// done.
func serveMember(t *testing.T, p core.Problem[int32], cfg core.Config) (from <-chan comm.Message, to core.Link, done <-chan error) {
	t.Helper()
	r, err := core.NewTaskRunner(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, ended := make(chan comm.Message, 16), make(chan error, 1)
	l, to := core.NewLocal(func(msg comm.Message) { frames <- msg })
	w := core.Worker[int32]{Link: l, Batch: 1, Attach: func(msg comm.Message) (*core.TaskRunner[int32], error) {
		if msg.Job != 0 {
			return nil, fmt.Errorf("received unexpected %v frame", msg.Kind)
		}
		return r, nil
	}}
	if err := to.Send(comm.Message{Kind: comm.KindJobSpec}); err != nil {
		t.Fatal(err)
	}
	go func() { ended <- w.Serve(context.Background()) }()
	return frames, to, ended
}

// An in-process member runs the fleet worker's loop and TaskRunner, so a
// task frame is checked the same way on both: a vertex outside the grid, a
// task for a job other than the one attached and an attach frame the
// member refuses end the loop with an error naming what was wrong — never a
// panic, and never a block computed outside the matrix.
func TestFixedSlaveRefusesOutOfGridVertex(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(16, 1), dp.RandomDNA(16, 2))
	cfg := core.Config{ProcPartition: dag.Square(4), Threads: 1}
	grid := dag.MatrixGeometry(e.Problem().Size, cfg.ProcPartition).Grid
	empty, err := matrix.EncodeBlocks(e.Problem().Codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	task := func(job, v int32) comm.Message {
		return comm.Message{Kind: comm.KindTask, Job: job, Vertex: v, Attempt: 1, Payload: empty}
	}
	for what, c := range map[string]struct {
		msg  comm.Message
		want string
	}{
		"vertex past the grid": {task(0, int32(grid.Cells())), fmt.Sprintf("vertex %d outside grid %v", grid.Cells(), grid)},
		"negative vertex":      {task(0, -1), fmt.Sprintf("vertex -1 outside grid %v", grid)},
		"another job's task":   {task(3, 0), "task for unattached job 3"},
		"attach frame":         {comm.Message{Kind: comm.KindJobSpec, Job: 1}, "unexpected job-spec frame"},
	} {
		from, master, done := serveMember(t, e.Problem(), cfg)
		if msg := <-from; msg.Kind != comm.KindIdle {
			t.Fatalf("%s: member opened with %v, want Idle", what, msg.Kind)
		}
		if err := master.Send(c.msg); err != nil {
			t.Fatal(err)
		}
		err := <-done
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Serve = %v, want an error naming %q", what, err, c.want)
		}
	}
}

// An in-process member keeps the worker's one block cache: a keyed task
// records the block the member computes under its content key, so a later
// task may name that block by reference instead of shipping it — what its
// master does under DeltaShipping.
func TestFixedSlaveResolvesItsOwnBlock(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(8, 1), dp.RandomDNA(8, 2))
	want := e.Sequential()
	cfg := core.Config{ProcPartition: dag.Square(4), Threads: 1}
	geom := dag.MatrixGeometry(e.Problem().Size, cfg.ProcPartition)
	from, master, done := serveMember(t, e.Problem(), cfg)
	if msg := <-from; msg.Kind != comm.KindIdle {
		t.Fatalf("member opened with %v, want Idle", msg.Kind)
	}
	run := func(v int32, refs []matrix.BlockRef) []byte {
		t.Helper()
		payload, err := matrix.EncodeBlocksKeyed[int32](e.Problem().Codec, nil, refs)
		if err != nil {
			t.Fatal(err)
		}
		if err := master.Send(comm.Message{Kind: comm.KindTask, Vertex: v, Attempt: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		msg := <-from
		if msg.Kind != comm.KindResult || msg.Vertex != v {
			t.Fatalf("vertex %d answered %v for vertex %d", v, msg.Kind, msg.Vertex)
		}
		return msg.Payload
	}
	first := run(0, nil) // block (0,0) reads nothing
	// Block (0,1) reads a column of block (0,0), which the member computed.
	east := dag.Pos{Row: 0, Col: 1}
	out := run(geom.ID(east), []matrix.BlockRef{{Key: [32]byte(cas.PayloadKey(first)), Rect: geom.Rect(dag.Pos{})}})
	blocks, err := matrix.DecodeBlocks(e.Problem().Codec, out)
	if err != nil || len(blocks) != 1 || blocks[0].Rect != geom.Rect(east) {
		t.Fatalf("block (0,1) came back as %v (%v)", blocks, err)
	}
	r := blocks[0].Rect
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		for j := r.Col0; j < r.Col0+r.Cols; j++ {
			if got := blocks[0].At(i, j); got != want[i][j] {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	if err := master.Send(comm.Message{Kind: comm.KindEnd}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
}

// A worker with a heartbeat period beats at it and sends nothing else of
// its own — no frame announcing hunger, which the driver reads off an empty
// draw — and its beacon stops with the loop when the driver dismisses it.
func TestWorkerBeatsUntilDismissed(t *testing.T) {
	var mu sync.Mutex
	var kinds []comm.Kind
	beat := make(chan struct{}, 1)
	l, to := core.NewLocal(func(msg comm.Message) {
		mu.Lock()
		kinds = append(kinds, msg.Kind)
		mu.Unlock()
		if msg.Kind == comm.KindHeartbeat {
			select {
			case beat <- struct{}{}:
			default:
			}
		}
	})
	w := core.Worker[int32]{Link: l, Beat: time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Serve(context.Background()) }()
	<-beat
	<-beat
	if err := to.Send(comm.Message{Kind: comm.KindEnd}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v, want dismissed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	idles := 0
	for _, k := range kinds {
		switch k {
		case comm.KindIdle:
			idles++
		case comm.KindHeartbeat:
		default:
			t.Fatalf("an idle worker sent %v; want its idle frame and heartbeats alone: %v", k, kinds)
		}
	}
	if idles != 1 {
		t.Fatalf("%d idle frames, want the one the loop opens with: %v", idles, kinds)
	}
}
