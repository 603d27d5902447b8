package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// A fixed slave runs the fleet worker's loop and TaskRunner, so a task
// frame is checked the same way on both: a vertex outside the grid, a task
// for a job other than the run's one job and an attach frame end RunSlave
// with an error naming what was wrong — never a panic, and never a block
// computed outside the matrix.
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
		nw := comm.NewChanNetwork(2, comm.LatencyModel{})
		done := make(chan error, 1)
		go func() { done <- core.RunSlave(e.Problem(), cfg, nw.Endpoint(1)) }()
		master := nw.Endpoint(0)
		if msg, err := master.Recv(); err != nil || msg.Kind != comm.KindIdle {
			t.Fatalf("%s: slave opened with %v (%v), want Idle", what, msg.Kind, err)
		}
		if err := master.Send(1, c.msg); err != nil {
			t.Fatal(err)
		}
		err := <-done
		nw.Close()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RunSlave = %v, want an error naming %q", what, err, c.want)
		}
	}
}

// A fixed slave keeps the worker's one block cache: a keyed task records
// the block the slave computes under its content key, so a later task may
// name that block by reference instead of shipping it — what its master
// does under DeltaShipping.
func TestFixedSlaveResolvesItsOwnBlock(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(8, 1), dp.RandomDNA(8, 2))
	want := e.Sequential()
	cfg := core.Config{ProcPartition: dag.Square(4), Threads: 1}
	geom := dag.MatrixGeometry(e.Problem().Size, cfg.ProcPartition)
	nw := comm.NewChanNetwork(2, comm.LatencyModel{})
	done := make(chan error, 1)
	go func() { done <- core.RunSlave(e.Problem(), cfg, nw.Endpoint(1)) }()
	master := nw.Endpoint(0)
	if msg, err := master.Recv(); err != nil || msg.Kind != comm.KindIdle {
		t.Fatalf("slave opened with %v (%v), want Idle", msg.Kind, err)
	}
	run := func(v int32, refs []matrix.BlockRef) []byte {
		t.Helper()
		payload, err := matrix.EncodeBlocksKeyed[int32](e.Problem().Codec, nil, refs)
		if err != nil {
			t.Fatal(err)
		}
		if err := master.Send(1, comm.Message{Kind: comm.KindTask, Vertex: v, Attempt: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		msg, err := master.Recv()
		if err != nil || msg.Kind != comm.KindResult || msg.Vertex != v {
			t.Fatalf("vertex %d answered %v for vertex %d (%v)", v, msg.Kind, msg.Vertex, err)
		}
		return msg.Payload
	}
	first := run(0, nil) // block (0,0) reads nothing
	// Block (0,1) reads a column of block (0,0), which the slave computed.
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
	if err := master.Send(1, comm.Message{Kind: comm.KindEnd}); err != nil {
		t.Fatal(err)
	}
	err = <-done
	nw.Close()
	if err != nil {
		t.Fatalf("RunSlave = %v", err)
	}
}
