package cluster

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
	"repro/internal/sched"
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

func checkMatrix(t *testing.T, label string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: [%d][%d] = %d, want %d", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// waitTick receives one control-loop tick completion (the onTick hook
// fires after the tick's sweep/overtime/speculation work is done), so the
// caller can assert the tick's effects without polling. The real-time
// timeout only bounds a wedged loop.
func waitTick(t *testing.T, ticks <-chan struct{}) {
	t.Helper()
	select {
	case <-ticks:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a control-loop tick")
	}
}

func fakeClockProblem() core.Problem[int32] {
	e := dp.NewEditDistance(dp.RandomDNA(64, 51), dp.RandomDNA(64, 52))
	return e.Problem()
}

// TestDuplicateResultIdempotent drives the master's result path directly,
// for every registered application: each vertex gets an original and a
// speculative backup attempt, both results are delivered, each twice, in
// both orders. Exactly one delivery per vertex may take effect; the rest
// must drop as stale, and the assembled matrix must stay bit-identical to
// the sequential reference — including after a checkpoint replay.
func TestDuplicateResultIdempotent(t *testing.T) {
	for _, app := range cli.Apps {
		t.Run(app, func(t *testing.T) {
			prob, want := reference(t, app, 48)
			proc := dag.Size{Rows: (prob.Size.Rows + 7) / 8, Cols: (prob.Size.Cols + 7) / 8}
			opts := Options{
				Addr:           "127.0.0.1:0",
				MinWorkers:     1,
				TaskTimeout:    time.Hour,
				CheckpointPath: t.TempDir() + "/run.ckpt",
			}
			m, err := NewMaster(prob, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.teardown()
			if err := m.restore(); err != nil {
				t.Fatal(err)
			}
			runner, err := core.NewTaskRunner(prob, core.Config{ProcPartition: proc, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}

			applied := 0
			var wantWon, wantWasted int64
			for {
				v, ok := m.disp.Next(1)
				if !ok {
					break // dispatcher closed: the DAG drained
				}
				orig, ok, backup := m.register(1, v)
				if !ok || backup {
					t.Fatalf("vertex %d: original register = (%v, backup=%v)", v, ok, backup)
				}
				m.leases.grant(v, 1, orig)
				m.specMu.Lock()
				m.specPending[v] = true
				m.specMu.Unlock()
				spec, ok, backup := m.register(2, v)
				if !ok || !backup {
					t.Fatalf("vertex %d: backup register = (%v, backup=%v)", v, ok, backup)
				}
				m.leases.add(v, 2, spec)

				deps := m.graph.Vertex(v).DataPre
				positions := make([]dag.Pos, len(deps))
				for k, d := range deps {
					positions[k] = m.geom.PosOf(d)
				}
				payload, err := matrix.EncodeBlocks(prob.Codec, m.store.Gather(positions))
				if err != nil {
					t.Fatal(err)
				}
				out, err := runner.Run(v, payload)
				if err != nil {
					t.Fatal(err)
				}

				if applied%2 == 0 {
					// Original first: the backup was wasted work.
					m.applyResult(1, v, orig, out)
					m.applyResult(1, v, orig, out)
					m.applyResult(2, v, spec, out)
					m.applyResult(2, v, spec, out)
					wantWasted++
				} else {
					// Backup first: the speculation won the race.
					m.applyResult(2, v, spec, out)
					m.applyResult(2, v, spec, out)
					m.applyResult(1, v, orig, out)
					m.applyResult(1, v, orig, out)
					wantWon++
				}
				applied++
			}

			if !m.parser.Finished() {
				t.Fatal("DAG did not drain")
			}
			if got := m.ctrs.Tasks.Load(); got != int64(applied) {
				t.Fatalf("tasks = %d, want %d (each vertex counted exactly once)", got, applied)
			}
			if got := m.ctrs.StaleResults.Load(); got != int64(3*applied) {
				t.Fatalf("stale = %d, want %d (three dropped deliveries per vertex)", got, 3*applied)
			}
			if got := m.ctrs.SpecWon.Load(); got != wantWon {
				t.Fatalf("specWon = %d, want %d", got, wantWon)
			}
			if got := m.ctrs.SpecWasted.Load(); got != wantWasted {
				t.Fatalf("specWasted = %d, want %d", got, wantWasted)
			}
			if n := m.rt.Outstanding(); n != 0 {
				t.Fatalf("%d attempts leaked in the register table", n)
			}
			if n := m.leases.len(); n != 0 {
				t.Fatalf("%d leases leaked", n)
			}
			checkMatrix(t, app, m.store.Assemble(), want)

			// A fresh master must replay the checkpoint to the same matrix:
			// the duplicate deliveries wrote each vertex exactly once.
			m.teardown()
			m2, err := NewMaster(prob, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.teardown()
			if err := m2.restore(); err != nil {
				t.Fatal(err)
			}
			if got := m2.ctrs.Restored.Load(); got != int64(applied) {
				t.Fatalf("restored = %d, want %d", got, applied)
			}
			if !m2.parser.Finished() {
				t.Fatal("restored master did not recognise the finished run")
			}
			checkMatrix(t, app+" (restored)", m2.store.Assemble(), want)
		})
	}
}

// TestCommitRejectsWrongRect: a block that covers another vertex's region
// under an in-range, computable vertex id used to panic the master inside
// Store.Put. From a checkpoint record, restore must refuse the log; from a
// worker's result, the run must end with an error.
func TestCommitRejectsWrongRect(t *testing.T) {
	prob, _ := reference(t, "editdist", 48)
	proc := dag.Square(8)
	forged, err := matrix.EncodeBlocks(prob.Codec,
		[]*matrix.Block[int32]{matrix.NewBlock[int32](dag.Rect{Row0: 0, Col0: 8, Rows: 8, Cols: 8})})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "does not match geometry rect") {
			t.Fatalf("%s: err = %v, want the rect mismatch", what, err)
		}
	}

	path := t.TempDir() + "/run.ckpt"
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.NewWriter(file).Append(0, forged); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(prob, Options{Addr: "127.0.0.1:0", MinWorkers: 1, Spec: Spec{Proc: proc}, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m.teardown()
	wantErr("restore", m.restore())

	m2, err := NewMaster(prob, Options{Addr: "127.0.0.1:0", MinWorkers: 1, Spec: Spec{Proc: proc}, TaskTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.teardown()
	if err := m2.restore(); err != nil {
		t.Fatal(err)
	}
	v, ok := m2.disp.Next(1)
	if !ok {
		t.Fatal("no computable vertex")
	}
	attempt, ok, _ := m2.register(1, v)
	if !ok {
		t.Fatalf("vertex %d did not register", v)
	}
	m2.leases.grant(v, 1, attempt)
	m2.applyResult(1, v, attempt, forged)
	if !m2.finished() {
		t.Fatal("a wrong-rect result did not end the run")
	}
	m2.errMu.Lock()
	err = m2.err
	m2.errMu.Unlock()
	wantErr("result", err)
}

// TestClusterOvertimeFakeClock drives the control loop's overtime path on
// a FakeClock: expiry must release the lease and requeue the vertex, and
// MaxAttempts expiries of the same vertex must abort the run — all
// without a single real-time timeout.
func TestClusterOvertimeFakeClock(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	opts := Options{
		Addr:              "127.0.0.1:0",
		MinWorkers:        1,
		HeartbeatInterval: time.Hour, // keep the membership sweep inert
		CheckInterval:     time.Second,
		TaskTimeout:       500 * time.Millisecond,
		MaxAttempts:       3,
		Clock:             fake,
	}
	m, err := NewMaster(fakeClockProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.teardown()
	if err := m.restore(); err != nil {
		t.Fatal(err)
	}
	ticks := make(chan struct{}, 8)
	m.onTick = func() { ticks <- struct{}{} }
	loopDone := make(chan struct{})
	go func() {
		m.controlLoop()
		close(loopDone)
	}()
	fake.BlockUntilTickers(1)

	var vertex int32 = -1
	for round := 1; round <= opts.MaxAttempts; round++ {
		v, ok := m.disp.Next(1)
		if !ok {
			t.Fatalf("round %d: dispatcher closed", round)
		}
		if vertex == -1 {
			vertex = v
		} else if v != vertex {
			t.Fatalf("round %d: drew vertex %d, want requeued %d", round, v, vertex)
		}
		attempt, ok, backup := m.register(1, v)
		if !ok || backup {
			t.Fatalf("round %d: register = (%v, backup=%v)", round, ok, backup)
		}
		m.leases.grant(v, 1, attempt)
		m.ot.Add(v, attempt, fake.Now().Add(opts.TaskTimeout))

		fake.Advance(opts.CheckInterval)
		if round < opts.MaxAttempts {
			waitTick(t, ticks)
			if got := m.ctrs.Redistributions.Load(); got != int64(round) {
				t.Fatalf("round %d: redistributions = %d, want %d", round, got, round)
			}
			if n := m.leases.len(); n != 0 {
				t.Fatalf("round %d: %d leases survived the timeout", round, n)
			}
			if m.rt.Accept(v, attempt) {
				t.Fatalf("round %d: expired attempt still accepted", round)
			}
		}
	}

	// The final expiry aborts the run from inside the tick, before the
	// onTick hook fires — wait on the run's own done channel instead.
	select {
	case <-m.done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for MaxAttempts abort")
	}
	<-loopDone
	m.errMu.Lock()
	err = m.err
	m.errMu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "MaxAttempts") {
		t.Fatalf("run error = %v, want MaxAttempts abort", err)
	}
	if got := m.ctrs.Redistributions.Load(); got != int64(opts.MaxAttempts-1) {
		t.Fatalf("redistributions = %d, want %d", got, opts.MaxAttempts-1)
	}
}

// TestSpeculationFakeClock verifies the straggler detector on a FakeClock:
// no backup below the profile threshold, exactly one flag past it, no
// re-flag while one is pending, and the flagged draw becomes a concurrent
// backup attempt — refused only to the member already holding the vertex.
func TestSpeculationFakeClock(t *testing.T) {
	fake := sched.NewFakeClock(time.Unix(0, 0))
	opts := Options{
		Addr:              "127.0.0.1:0",
		MinWorkers:        1,
		HeartbeatInterval: time.Hour,
		CheckInterval:     time.Second,
		TaskTimeout:       time.Hour, // overtime must not race the detector
		Speculate:         true,
		Clock:             fake,
	}
	m, err := NewMaster(fakeClockProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.teardown()
	if err := m.restore(); err != nil {
		t.Fatal(err)
	}

	w1 := m.reg.Admit("w1", "test") // the speculation budget is per live member

	// Cold profile: no threshold, no speculation.
	m.maybeSpeculate()

	v, ok := m.disp.Next(w1.ID)
	if !ok {
		t.Fatal("dispatcher closed")
	}
	orig, ok, backup := m.register(w1.ID, v)
	if !ok || backup {
		t.Fatalf("register = (%v, backup=%v)", ok, backup)
	}
	m.leases.grant(v, w1.ID, orig)
	m.ot.Add(v, orig, fake.Now().Add(opts.TaskTimeout))

	// Warm the profile: p95 = 2s, threshold = 2 * 2s = 4s (defaults).
	for i := 0; i < 8; i++ {
		m.profile.Observe(2 * time.Second)
	}

	fake.Advance(3 * time.Second)
	m.maybeSpeculate()
	if n := m.disp.ReadyCount(); n != 0 {
		t.Fatalf("speculated on a 3s-old attempt below the 4s threshold (%d flagged)", n)
	}

	fake.Advance(2 * time.Second) // age 5s > threshold
	m.maybeSpeculate()
	if n := m.disp.ReadyCount(); n != 1 {
		t.Fatalf("flagged %d vertices past the threshold, want 1", n)
	}
	m.maybeSpeculate()
	if n := m.disp.ReadyCount(); n != 1 {
		t.Fatalf("detector re-flagged while a backup was queued (%d ready)", n)
	}

	// The holder of the original must not back itself up: its own draw of
	// the flagged vertex is refused and the flag dropped.
	if vd, ok := m.disp.Next(w1.ID); !ok || vd != v {
		t.Fatalf("flagged draw = (%d, %v), want vertex %d", vd, ok, v)
	}
	if _, ok, _ := m.register(w1.ID, v); ok {
		t.Fatal("member granted a backup of its own attempt")
	}
	if m.rt.LiveAttempts(v) != 1 {
		t.Fatalf("LiveAttempts = %d after refused self-backup, want 1", m.rt.LiveAttempts(v))
	}

	// Re-flag; a second member turns the draw into a concurrent backup.
	fake.Advance(time.Second)
	m.maybeSpeculate()
	if n := m.disp.ReadyCount(); n != 1 {
		t.Fatalf("dropped flag not re-raised on the next tick (%d ready)", n)
	}
	w2 := m.reg.Admit("w2", "test")
	v2, ok := m.disp.Next(w2.ID)
	if !ok || v2 != v {
		t.Fatalf("backup draw = (%d, %v), want vertex %d", v2, ok, v)
	}
	spec, ok, backup := m.register(w2.ID, v2)
	if !ok || !backup {
		t.Fatalf("backup register = (%v, backup=%v)", ok, backup)
	}
	m.leases.add(v, w2.ID, spec)
	if m.rt.LiveAttempts(v) != 2 {
		t.Fatalf("LiveAttempts = %d, want 2 (original + backup)", m.rt.LiveAttempts(v))
	}

	// While a race is live the detector must leave the vertex alone.
	fake.Advance(10 * time.Second)
	m.maybeSpeculate()
	if n := m.disp.ReadyCount(); n != 0 {
		t.Fatalf("detector flagged a vertex already racing a backup (%d ready)", n)
	}
}
