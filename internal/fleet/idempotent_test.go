package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// TestFleetDuplicateResultIdempotent drives the fleet's result path
// directly, for one kernel of each dependency shape: each vertex gets an
// original and a speculative backup attempt, both results are delivered,
// each twice, in both orders. Exactly one delivery per vertex may take
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
			jb, err := newJob(1, prob, req.withDefaults(f.opts), f.clock)
			if err != nil {
				t.Fatal(err)
			}
			frontier, err := jb.restore()
			if err != nil {
				t.Fatal(err)
			}
			insertJob(t, f, jb)
			f.requeueReady(jb, frontier)
			runner, err := core.NewTaskRunner(prob, core.Config{ProcPartition: jb.geom.Block, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			// draw pops the next computable vertex the way a sender would.
			draw := func() (int32, bool) {
				f.mu.Lock()
				defer f.mu.Unlock()
				if len(jb.ready) == 0 {
					return 0, false
				}
				v := jb.ready[len(jb.ready)-1]
				jb.ready = jb.ready[:len(jb.ready)-1]
				return v, true
			}

			applied := 0
			var wantWon, wantWasted int64
			for {
				v, ok := draw()
				if !ok {
					break // nothing computable left: the DAG drained
				}
				orig, ok, backup, _ := f.register(jb, 1, v)
				if !ok || backup {
					t.Fatalf("vertex %d: original register = (%v, backup=%v)", v, ok, backup)
				}
				now := f.clock.Now()
				jb.leases.Grant(v, 1, orig, now)
				jb.specMu.Lock()
				jb.specPending[v] = true
				jb.specMu.Unlock()
				spec, ok, backup, _ := f.register(jb, 2, v)
				if !ok || !backup {
					t.Fatalf("vertex %d: backup register = (%v, backup=%v)", v, ok, backup)
				}
				jb.leases.Add(v, 2, spec, now)

				deps := jb.graph.Vertex(v).DataPre
				positions := make([]dag.Pos, len(deps))
				for k, d := range deps {
					positions[k] = jb.geom.PosOf(d)
				}
				payload, err := matrix.EncodeBlocks(prob.Codec, jb.store.Gather(positions))
				if err != nil {
					t.Fatal(err)
				}
				out, err := runner.Run(v, payload)
				if err != nil {
					t.Fatal(err)
				}

				if applied%2 == 0 {
					// Original first: the backup was wasted work.
					f.applyResult(1, jb.id, v, orig, out)
					f.applyResult(1, jb.id, v, orig, out)
					f.applyResult(2, jb.id, v, spec, out)
					f.applyResult(2, jb.id, v, spec, out)
					wantWasted++
				} else {
					// Backup first: the speculation won the race.
					f.applyResult(2, jb.id, v, spec, out)
					f.applyResult(2, jb.id, v, spec, out)
					f.applyResult(1, jb.id, v, orig, out)
					f.applyResult(1, jb.id, v, orig, out)
					wantWon++
				}
				applied++
			}

			if !jb.parser.Finished() || !jb.finished() {
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
			if got := st.StaleResults + f.stale.Load(); got != int64(3*applied) {
				t.Fatalf("stale = %d, want %d (three dropped deliveries per vertex)", got, 3*applied)
			}
			if st.SpecWon != wantWon || st.SpecWasted != wantWasted {
				t.Fatalf("specWon/specWasted = %d/%d, want %d/%d", st.SpecWon, st.SpecWasted, wantWon, wantWasted)
			}
			if st.Leaked != 0 {
				t.Fatalf("%d attempts/leases leaked", st.Leaked)
			}
			checkMatrix(t, app, jb.store.Assemble(), want)

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
