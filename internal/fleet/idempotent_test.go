package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// computeVertex runs vertex v of jb the way a worker would: the data
// region gathered from the job's store, through a TaskRunner.
func computeVertex(t *testing.T, jb *job[int32], runner *core.TaskRunner[int32], v int32) []byte {
	t.Helper()
	payload, err := jb.eng.TaskPayload(v, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runner.Run(v, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetDuplicateResultIdempotent drives the fleet's result path
// directly, for one kernel of each dependency shape: each vertex gets an
// original and a speculative backup attempt (all but the first, whose
// delivery warms the profile the straggler detector needs), both results
// are delivered, each twice, in both orders. Exactly one delivery per vertex may take
// effect; the rest must drop as stale, and the assembled matrix must stay
// bit-identical to the sequential reference — including after a
// checkpoint replay. (Duplicate frames on the wire, for every cli app,
// are internal/cluster's TestDuplicateResultIdempotent.)
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
			frontier, err := jb.restore()
			if err != nil {
				t.Fatal(err)
			}
			insertJob(f, jb, frontier)
			runner, err := core.NewTaskRunner(prob, core.Config{ProcPartition: jb.eng.Graph().Geom.Block, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			// draw pops the next computable vertex the way a sender would
			// (the default batch is one).
			draw := func() (int32, bool) {
				f.mu.Lock()
				defer f.mu.Unlock()
				_, ids, ok := f.pool.Draw(0) // every fleet job draws LIFO: any member
				if !ok {
					return 0, false
				}
				return ids[0], true
			}

			applied := 0
			var wantWon, wantWasted int64
			for {
				v, ok := draw()
				if !ok {
					break // nothing computable left: the DAG drained
				}
				now := f.clock.Now()
				orig, out := jb.eng.Lease(1, v, 0, now)
				if out != engine.Granted {
					t.Fatalf("vertex %d: original lease = %v, want Granted", v, out)
				}
				if applied == 0 {
					// No profile yet, so no straggler to flag: the first
					// vertex runs alone and its delivery is the first sample.
					result := computeVertex(t, jb, runner, v)
					f.applyResult(1, jb.id, v, orig, result)
					f.applyResult(1, jb.id, v, orig, result)
					applied++
					continue
				}
				// An hour on, against a profile of instant completions, v is a
				// straggler: flagged, and member 2's draw of it is a backup.
				if flagged := jb.eng.FlagStragglers(now.Add(time.Hour), 0.95, 2, 0, 1, 1); len(flagged) != 1 || flagged[0] != v {
					t.Fatalf("vertex %d: flagged %v", v, flagged)
				}
				spec, out := jb.eng.Lease(2, v, 0, now)
				if out != engine.Backup {
					t.Fatalf("vertex %d: backup lease = %v, want Backup", v, out)
				}
				result := computeVertex(t, jb, runner, v)

				if applied%2 == 0 {
					// Original first: the backup was wasted work.
					f.applyResult(1, jb.id, v, orig, result)
					f.applyResult(1, jb.id, v, orig, result)
					f.applyResult(2, jb.id, v, spec, result)
					f.applyResult(2, jb.id, v, spec, result)
					wantWasted++
				} else {
					// Backup first: the speculation won the race.
					f.applyResult(2, jb.id, v, spec, result)
					f.applyResult(2, jb.id, v, spec, result)
					f.applyResult(1, jb.id, v, orig, result)
					f.applyResult(1, jb.id, v, orig, result)
					wantWon++
				}
				applied++
			}

			if !jb.eng.Finished() || !jb.finished() {
				t.Fatal("DAG did not drain")
			}
			if err := jb.finalErr(); err != nil {
				t.Fatal(err)
			}
			st := jb.stats()
			if st.Tasks != int64(applied) {
				t.Fatalf("tasks = %d, want %d (each vertex counted exactly once)", st.Tasks, applied)
			}
			// The last vertex's accepted delivery retires the job, so its
			// three late deliveries meet an unknown job id and are dropped
			// on the fleet's ledger instead of the job's.
			if got := st.StaleResults + f.stale.Load(); got != int64(3*applied-2) {
				t.Fatalf("stale = %d, want %d (one dropped delivery of the first vertex, three of every other)", got, 3*applied-2)
			}
			if st.SpecWon != wantWon || st.SpecWasted != wantWasted {
				t.Fatalf("specWon/specWasted = %d/%d, want %d/%d", st.SpecWon, st.SpecWasted, wantWon, wantWasted)
			}
			if st.Leaked != 0 {
				t.Fatalf("%d attempts/leases leaked", st.Leaked)
			}
			checkMatrix(t, app, jb.eng.Store().Assemble(), want)

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
