package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
)

// computeVertex runs vertex v of jb the way a worker would: the data
// region gathered from the job's store, through a TaskRunner.
func computeVertex(t *testing.T, jb *core.Job[int32], runner *core.TaskRunner[int32], v int32) []byte {
	t.Helper()
	payload, err := jb.Engine.TaskPayload(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runner.Run(v, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stale counts the results the fleet dropped for jobs no longer running.
func stale(f *Fleet[int32]) int64 {
	_, n := f.d.Counts()
	return n
}

// deliverResult hands the driver member's result for attempt of vertex v
// of jb, the way the member's reader would.
func deliverResult(f *Fleet[int32], member int, jb *core.Job[int32], v, attempt int32, payload []byte) {
	f.d.Deliver(member, comm.Message{Kind: comm.KindResult, Job: jb.ID, Vertex: v, Attempt: attempt, Payload: payload})
}

// TestFleetDuplicateResultIdempotent drives the fleet's result path
// directly, for one kernel of each dependency shape: each vertex gets an
// original and a speculative backup attempt (all but the first, whose
// delivery warms the profile the straggler detector needs), both results
// are delivered, each twice, in both orders. Exactly one delivery per vertex may take
// effect; the rest must drop as stale, and the assembled matrix must stay
// bit-identical to the sequential reference — including after a
// checkpoint replay. (Duplicate frames on the wire, for every cli app,
// are the elastic suite's TestDuplicateResultIdempotent.)
func TestFleetDuplicateResultIdempotent(t *testing.T) {
	for _, app := range []string{"edit", "nussinov", "swgg"} {
		t.Run(app, func(t *testing.T) {
			prob, want := mustProblem(t, app)
			f, err := New[int32](Options{Addr: "127.0.0.1:0", TaskTimeout: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			req := JobRequest{Name: app, CheckpointPath: t.TempDir() + "/job.ckpt"}
			jb, err := f.newJob(1, prob, req)
			if err != nil {
				t.Fatal(err)
			}
			insertJob(t, f, jb)
			runner, err := core.NewTaskRunner(prob, core.Config{ProcPartition: jb.Engine.Graph().Geom.Block, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			// draw pops the next computable vertex the way a sender would
			// (the default batch is one).
			draw := func() (v int32, ok bool) {
				f.d.WithPool(func(p *engine.Pool[int32]) {
					var ids []int32
					if _, ids, ok = p.Draw(0); ok { // every fleet job draws LIFO: any member
						v = ids[0]
					}
				})
				return v, ok
			}

			applied := 0
			var wantWon, wantWasted int64
			for {
				v, ok := draw()
				if !ok {
					break // nothing computable left: the DAG drained
				}
				now := time.Now() // the fleet runs on the wall clock
				orig, out := jb.Engine.Lease(1, v, 0, now)
				if out != engine.Granted {
					t.Fatalf("vertex %d: original lease = %v, want Granted", v, out)
				}
				if applied == 0 {
					// No profile yet, so no straggler to flag: the first
					// vertex runs alone and its delivery is the first sample.
					result := computeVertex(t, jb, runner, v)
					deliverResult(f, 1, jb, v, orig, result)
					deliverResult(f, 1, jb, v, orig, result)
					applied++
					continue
				}
				// An hour on, against a profile of instant completions, v is a
				// straggler: flagged, and member 2's draw of it is a backup.
				if flagged := jb.Engine.FlagStragglers(now.Add(time.Hour), 0.95, 2, 0, 1, 1); len(flagged) != 1 || flagged[0] != v {
					t.Fatalf("vertex %d: flagged %v", v, flagged)
				}
				spec, out := jb.Engine.Lease(2, v, 0, now)
				if out != engine.Backup {
					t.Fatalf("vertex %d: backup lease = %v, want Backup", v, out)
				}
				result := computeVertex(t, jb, runner, v)

				if applied%2 == 0 {
					// Original first: the backup was wasted work.
					deliverResult(f, 1, jb, v, orig, result)
					deliverResult(f, 1, jb, v, orig, result)
					deliverResult(f, 2, jb, v, spec, result)
					deliverResult(f, 2, jb, v, spec, result)
					wantWasted++
				} else {
					// Backup first: the speculation won the race.
					deliverResult(f, 2, jb, v, spec, result)
					deliverResult(f, 2, jb, v, spec, result)
					deliverResult(f, 1, jb, v, orig, result)
					deliverResult(f, 1, jb, v, orig, result)
					wantWon++
				}
				applied++
			}

			if !jb.Engine.Finished() || !jb.Finished() {
				t.Fatal("DAG did not drain")
			}
			if err := jb.Err(); err != nil {
				t.Fatal(err)
			}
			st := jb.Stats()
			if st.Tasks != int64(applied) {
				t.Fatalf("tasks = %d, want %d (each vertex counted exactly once)", st.Tasks, applied)
			}
			// The last vertex's accepted delivery retires the job, so its
			// three late deliveries meet an unknown job id and are dropped
			// on the fleet's ledger instead of the job's.
			if got := st.StaleResults + stale(f); got != int64(3*applied-2) {
				t.Fatalf("stale = %d, want %d (one dropped delivery of the first vertex, three of every other)", got, 3*applied-2)
			}
			if st.SpecWon != wantWon || st.SpecWasted != wantWasted {
				t.Fatalf("specWon/specWasted = %d/%d, want %d/%d", st.SpecWon, st.SpecWasted, wantWon, wantWasted)
			}
			if st.Leaked != 0 {
				t.Fatalf("%d attempts/leases leaked", st.Leaked)
			}
			checkMatrix(t, app, jb.Engine.Store().Assemble(), want)

			// A resubmission must replay the checkpoint to the same matrix:
			// the duplicate deliveries wrote each vertex exactly once.
			res, err := f.Run(context.Background(), prob, req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Restored != int64(applied) || res.Stats.Tasks != 0 {
				t.Fatalf("restored %d, tasks %d; want %d restored and nothing recomputed", res.Stats.Restored, res.Stats.Tasks, applied)
			}
			checkMatrix(t, app+" (restored)", res.Store.Assemble(), want)
		})
	}
}
