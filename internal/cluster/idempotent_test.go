package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/fleet"
)

// reference builds the DP instance for app with the same generator
// recipe cli.Build uses, exposing the sequential matrix the CLI facade
// does not. The default branch fails loudly so a new entry in cli.Apps
// forces a matching reference here.
func reference(t *testing.T, app string, n int) (core.Problem[int32], [][]int32) {
	t.Helper()
	const seed = 7
	switch app {
	case "swgg":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, seed+1)
		s := dp.NewSWGG(a, b)
		return s.Problem(), s.Sequential()
	case "nussinov":
		nu := dp.NewNussinov(dp.RandomRNA(n, seed))
		return nu.Problem(), nu.Sequential()
	case "editdist":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, seed+1)
		e := dp.NewEditDistance(a, b)
		return e.Problem(), e.Sequential()
	case "lcs":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.2, seed+1)
		l := dp.NewLCS(a, b)
		return l.Problem(), l.Sequential()
	case "nw":
		a := dp.RandomDNA(n, seed)
		b := dp.MutateSeq(a, dp.DNAAlphabet, 0.3, seed+1)
		nw := dp.NewNeedlemanWunsch(a, b)
		return nw.Problem(), nw.Sequential()
	case "knapsack":
		k := dp.NewKnapsack(n, 4*n, seed)
		return k.Problem(), k.Sequential()
	}
	t.Fatalf("no sequential reference for app %q — extend reference() alongside cli.Apps", app)
	return core.Problem[int32]{}, nil
}

// stutteringWorker joins the master as a protocol-level worker that
// computes prob honestly and sends every result frame twice — partial
// flushes and final frames alike. It returns nil when dismissed.
func stutteringWorker(addr string, prob core.Problem[int32], flush int) error {
	cn, _, err := comm.DialHello(addr, comm.Hello{Fleet: true, Name: "stutter"}, 5*time.Second)
	if err != nil {
		return err
	}
	defer cn.Close()
	twice := func(m comm.Message) error {
		if err := cn.Send(m); err != nil {
			return err
		}
		return cn.Send(m)
	}
	var runner *core.TaskRunner[int32]
	if err := cn.Send(comm.Message{Kind: comm.KindIdle}); err != nil {
		return err
	}
	for {
		msg, err := cn.Recv()
		if err != nil {
			return err
		}
		switch msg.Kind {
		case comm.KindJobSpec:
			var meta fleet.JobMeta
			if err := json.Unmarshal(msg.Payload, &meta); err != nil {
				return err
			}
			if runner, err = core.NewTaskRunner(prob, core.Config{ProcPartition: meta.Proc, Threads: 2}); err != nil {
				return err
			}
		case comm.KindTask, comm.KindTaskBatch:
			if err := comm.ServeTasks(msg, flush, runner.Run, twice); err != nil {
				return err
			}
		case comm.KindJobEnd, comm.KindHeartbeat:
		case comm.KindEnd:
			return nil
		default:
			return fmt.Errorf("stuttering worker received unexpected %v frame", msg.Kind)
		}
	}
}

// TestDuplicateResultIdempotent sends every result of an elastic run over
// the wire twice, for every registered application, batched so that
// partial flushes are duplicated too. Exactly one delivery per vertex may
// take effect: the other must drop as stale, nothing may leak, and the
// assembled matrix must be bit-identical to the sequential reference —
// including after a checkpoint replay on a master with no workers at all.
// (Both arrival orders of an original and its speculative backup are the
// fleet's white-box TestFleetDuplicateResultIdempotent.)
func TestDuplicateResultIdempotent(t *testing.T) {
	for _, app := range cli.Apps {
		t.Run(app, func(t *testing.T) {
			prob, want := reference(t, app, 48)
			spec := cluster.Spec{App: app, N: 48, Seed: 7}
			ckpt := t.TempDir() + "/run.ckpt"
			opts := testOptions()
			opts.HeartbeatInterval = time.Hour // the stuttering worker sends no beacons
			opts.Batch = 4

			f := startMaster(t, opts)
			dismissed := make(chan error, 1)
			go func() { dismissed <- stutteringWorker(f.Addr(), prob, 2) }()
			res, err := runElastic(context.Background(), f, prob, spec, 1, func(req *fleet.JobRequest) {
				req.CheckpointPath = ckpt
			})
			f.Close()
			// nil, or a connection error when Close caught the worker still
			// sending its last duplicate.
			werr := <-dismissed
			if err != nil {
				t.Fatalf("%v (worker: %v)", err, werr)
			}
			vertices := res.Stats.Tasks
			if vertices == 0 || res.Stats.Dispatches != vertices {
				t.Fatalf("tasks = %d, dispatches = %d; want every vertex dispatched and counted exactly once", vertices, res.Stats.Dispatches)
			}
			if res.Stats.StaleResults == 0 {
				t.Fatal("no delivery dropped as stale: the duplicates were not told apart")
			}
			if res.Stats.Leaked != 0 {
				t.Fatalf("%d attempts/leases leaked", res.Stats.Leaked)
			}
			equalMatrices(t, app, res.Store.Assemble(), want)

			// A fresh master must replay the checkpoint to the same matrix:
			// the duplicate deliveries wrote each vertex exactly once.
			f2 := startMaster(t, testOptions())
			res2, err := runElastic(context.Background(), f2, prob, spec, 0, func(req *fleet.JobRequest) {
				req.CheckpointPath = ckpt
			})
			if err != nil {
				t.Fatal(err)
			}
			if res2.Stats.Restored != vertices || res2.Stats.Tasks != 0 {
				t.Fatalf("restored %d, tasks %d; want %d restored and nothing recomputed", res2.Stats.Restored, res2.Stats.Tasks, vertices)
			}
			equalMatrices(t, app+" (restored)", res2.Store.Assemble(), want)
		})
	}
}
