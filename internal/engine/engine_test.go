package engine_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// The engine reads no clock and owns no goroutine, so these tests need
// neither a socket nor a sleep: time is the rig's now, a worker is a call
// of core.TaskRunner, and the wire is a function argument.

const taskTimeout = 10 * time.Second

// problems are the three dependency shapes at a size that keeps a whole
// job under a millisecond: 2D/0D wavefront, triangular, 2D/1D row+column.
func problem(t testing.TB, app string) (core.Problem[int32], dag.Size, [][]int32) {
	t.Helper()
	switch app {
	case "edit":
		e := dp.NewEditDistance(dp.RandomDNA(16, 1), dp.RandomDNA(16, 2))
		return e.Problem(), dag.Square(4), e.Sequential()
	case "nussinov":
		nu := dp.NewNussinov(dp.RandomRNA(32, 3))
		return nu.Problem(), dag.Square(4), nu.Sequential()
	case "swgg":
		s := dp.NewSWGG(dp.RandomDNA(16, 4), dp.RandomDNA(16, 5))
		return s.Problem(), dag.Square(4), s.Sequential()
	case "edit256": // 64 vertices of 4 KiB payloads: hashing shows
		e := dp.NewEditDistance(dp.RandomDNA(256, 6), dp.RandomDNA(256, 7))
		return e.Problem(), dag.Square(32), e.Sequential()
	}
	t.Fatalf("unknown problem %q", app)
	panic("unreachable")
}

// rig is one engine under test with a worker to compute its vertices.
type rig struct {
	t      testing.TB
	prob   core.Problem[int32]
	want   [][]int32
	eng    *engine.Job[int32]
	runner *core.TaskRunner[int32]
	now    time.Time
	ready  []int32 // what Frontier and Complete handed out, not yet leased by the script
}

func newRig(t testing.TB, app string, cfg engine.Config[int32]) *rig {
	t.Helper()
	prob, proc, want := problem(t, app)
	if cfg.TaskTimeout == 0 {
		cfg.TaskTimeout = taskTimeout
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 4
	}
	runner, err := core.NewTaskRunner(prob, core.Config{ProcPartition: proc, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		t: t, prob: prob, want: want, runner: runner,
		eng: engine.New(prob.Kernel.Pattern(), prob.Codec, prob.Size, proc, cfg),
		now: time.Unix(0, 0),
	}
}

// start takes the frontier.
func (r *rig) start() {
	r.t.Helper()
	ready, err := r.eng.Frontier()
	if err != nil {
		r.t.Fatal(err)
	}
	r.ready = ready
}

// take removes v from the rig's ready list (the script leases it itself).
func (r *rig) take(v int32) {
	r.t.Helper()
	for i, u := range r.ready {
		if u == v {
			r.ready = append(r.ready[:i], r.ready[i+1:]...)
			return
		}
	}
	r.t.Fatalf("vertex %d is not ready (ready: %v)", v, r.ready)
}

// lease leases v to member and insists on the outcome.
func (r *rig) lease(member int, v int32, want engine.Outcome) int32 {
	r.t.Helper()
	attempt, out := r.eng.Lease(member, v, 0, r.now)
	if out != want {
		r.t.Fatalf("Lease(member %d, vertex %d) = %v, want %v", member, v, out, want)
	}
	return attempt
}

// compute is the worker: v's block from the data region the store holds.
func (r *rig) compute(v int32) []byte {
	r.t.Helper()
	payload, err := r.eng.TaskPayload(v, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	out, err := r.runner.Run(v, payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return out
}

// deliver hands the engine a result and insists on whether it is taken.
func (r *rig) deliver(member int, v, attempt int32, payload []byte, wantAccepted bool) {
	r.t.Helper()
	ready, accepted, err := r.eng.Complete(member, v, attempt, payload, r.now)
	if err != nil {
		r.t.Fatalf("Complete(vertex %d, attempt %d): %v", v, attempt, err)
	}
	if accepted != wantAccepted {
		r.t.Fatalf("Complete(vertex %d, attempt %d) accepted = %v, want %v", v, attempt, accepted, wantAccepted)
	}
	r.ready = append(r.ready, ready...)
}

// run leases v to member, computes it and delivers the result a second later.
func (r *rig) run(member int, v int32) {
	r.t.Helper()
	r.take(v)
	attempt := r.lease(member, v, engine.Granted)
	r.now = r.now.Add(time.Second)
	r.deliver(member, v, attempt, r.compute(v), true)
}

// finish drains what is left of the job on member 9 and checks what every
// script must end with: nothing leaked, and the sequential answer.
func (r *rig) finish() {
	r.t.Helper()
	for len(r.ready) > 0 {
		v := r.ready[len(r.ready)-1]
		r.ready = r.ready[:len(r.ready)-1]
		attempt, out := r.eng.Lease(9, v, 0, r.now)
		if out == engine.Gone {
			continue // a requeued or flagged vertex that finished meanwhile
		}
		if out != engine.Granted {
			r.t.Fatalf("draining: Lease(vertex %d) = %v", v, out)
		}
		r.deliver(9, v, attempt, r.compute(v), true)
	}
	if !r.eng.Finished() {
		r.t.Fatalf("job did not drain: %d vertices remain", r.eng.Remaining())
	}
	r.audit()
	if i, j, differ := firstDiff(r.eng.Store().Assemble(), r.want); differ {
		r.t.Fatalf("cell (%d,%d) differs from the sequential matrix", i, j)
	}
}

func (r *rig) audit() {
	r.t.Helper()
	if n := r.eng.Leaked(); n != 0 {
		r.t.Fatalf("%d register/lease entries leaked", n)
	}
}

// race sets up a speculative race on the first root: member 1 holds the
// original, and — one completion having warmed the profile — member 2 a
// backup leased five seconds later. It returns the vertex and both stamps.
func (r *rig) race() (v, orig, backup int32) {
	r.t.Helper()
	r.start()
	r.run(3, r.ready[1])
	v = r.ready[0]
	r.take(v)
	orig = r.lease(1, v, engine.Granted)
	r.now = r.now.Add(taskTimeout / 2)
	r.flag(v)
	backup = r.lease(2, v, engine.Backup)
	if got := r.eng.LiveAttempts(v); got != 2 {
		r.t.Fatalf("LiveAttempts = %d, want original and backup", got)
	}
	return v, orig, backup
}

// flag insists the straggler detector flags exactly v.
func (r *rig) flag(v int32) {
	r.t.Helper()
	if got := r.eng.FlagStragglers(r.now, 0.95, 2, 0, 1, 4); len(got) != 1 || got[0] != v {
		r.t.Fatalf("FlagStragglers = %v, want [%d]", got, v)
	}
}

func forgedBlock(t testing.TB, codec matrix.Codec[int32], rect dag.Rect) []byte {
	t.Helper()
	payload, err := matrix.EncodeBlocks(codec, []*matrix.Block[int32]{matrix.NewBlock[int32](rect)})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestScripts(t *testing.T) {
	scripts := []struct {
		name string
		app  string
		cfg  engine.Config[int32]
		run  func(t *testing.T, r *rig)
	}{
		{"stale attempt refused and counted", "edit", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			r.start()
			v := r.ready[0]
			r.take(v)
			old := r.lease(1, v, engine.Granted)
			result := r.compute(v)
			r.now = r.now.Add(taskTimeout)
			if requeue, err := r.eng.Expire(r.now); err != nil || len(requeue) != 1 || requeue[0] != v {
				t.Fatalf("Expire = (%v, %v), want vertex %d back", requeue, err, v)
			}
			fresh := r.lease(2, v, engine.Granted)
			r.deliver(1, v, old, result, false)
			r.deliver(2, v, fresh, result, true)
			st := r.eng.Counters().Stats()
			if st.StaleResults != 1 || st.Redistributions != 1 || st.Tasks != 1 || st.Dispatches != 2 {
				t.Fatalf("stats = %+v, want 1 stale, 1 redistribution, 1 task, 2 dispatches", st)
			}
		}},
		{"duplicate delivery commits once", "edit", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			var log bytes.Buffer
			r.eng.SetCheckpoint(checkpoint.NewWriter(&log))
			r.start()
			v := r.ready[0]
			r.take(v)
			attempt := r.lease(1, v, engine.Granted)
			result := r.compute(v)
			r.deliver(1, v, attempt, result, true)
			r.deliver(1, v, attempt, result, false)
			if st := r.eng.Counters().Stats(); st.Tasks != 1 || st.StaleResults != 1 {
				t.Fatalf("stats = %+v, want one task and one stale result", st)
			}
			records := 0
			if _, err := checkpoint.Replay(bytes.NewReader(log.Bytes()), func(int32, []byte) error { records++; return nil }); err != nil || records != 1 {
				t.Fatalf("checkpoint holds %d records (%v), want the one commit", records, err)
			}
		}},
		{"backup wins", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			v, orig, backup := r.race()
			result := r.compute(v)
			r.deliver(2, v, backup, result, true)
			r.deliver(1, v, orig, result, false)
			if st := r.eng.Counters().Stats(); st.Speculated != 1 || st.SpecWon != 1 || st.SpecWasted != 0 {
				t.Fatalf("stats = %+v, want the one backup won", st)
			}
		}},
		{"original wins", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			v, orig, backup := r.race()
			result := r.compute(v)
			r.deliver(1, v, orig, result, true)
			r.deliver(2, v, backup, result, false)
			if st := r.eng.Counters().Stats(); st.Speculated != 1 || st.SpecWon != 0 || st.SpecWasted != 1 {
				t.Fatalf("stats = %+v, want the one backup wasted", st)
			}
		}},
		{"original expires, then the backup completes: neither won nor wasted", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			v, orig, backup := r.race()
			result := r.compute(v)
			r.now = r.now.Add(taskTimeout / 2) // the original's deadline, not yet the backup's
			if requeue, err := r.eng.Expire(r.now); err != nil || len(requeue) != 0 {
				t.Fatalf("Expire = (%v, %v), want nothing requeued: the backup still covers the vertex", requeue, err)
			}
			if got := r.eng.LiveAttempts(v); got != 1 {
				t.Fatalf("LiveAttempts = %d after the original expired, want the backup alone", got)
			}
			r.deliver(2, v, backup, result, true)
			r.deliver(1, v, orig, result, false)
			if st := r.eng.Counters().Stats(); st.SpecWon != 0 || st.SpecWasted != 0 || st.Redistributions != 0 {
				t.Fatalf("stats = %+v, want no race left to classify and no redistribution", st)
			}
		}},
		{"backup revoked is wasted", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			v, orig, _ := r.race()
			if revoked, requeue := r.eng.Revoke(2); revoked != 1 || len(requeue) != 0 {
				t.Fatalf("Revoke = (%d, %v), want one lease and nothing requeued: the original still runs", revoked, requeue)
			}
			if st := r.eng.Counters().Stats(); st.SpecWasted != 1 {
				t.Fatalf("SpecWasted = %d, want 1", st.SpecWasted)
			}
			r.deliver(1, v, orig, r.compute(v), true)
			if st := r.eng.Counters().Stats(); st.SpecWasted != 1 || st.SpecWon != 0 {
				t.Fatalf("stats = %+v, want the race classified once", st)
			}
		}},
		{"self-backup is held with the flag intact", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			r.start()
			r.run(3, r.ready[1])
			v := r.ready[0]
			r.take(v)
			orig := r.lease(1, v, engine.Granted)
			r.now = r.now.Add(taskTimeout / 2)
			r.flag(v)
			r.lease(1, v, engine.Held)
			if got := r.eng.LiveAttempts(v); got != 1 {
				t.Fatalf("LiveAttempts = %d after the held draw, want 1", got)
			}
			if again := r.eng.FlagStragglers(r.now, 0.95, 2, 0, 1, 4); len(again) != 0 {
				t.Fatalf("held vertex flagged again: %v", again)
			}
			backup := r.lease(2, v, engine.Backup) // the flag survived
			result := r.compute(v)
			r.deliver(1, v, orig, result, true)
			r.deliver(2, v, backup, result, false)
			// A flag whose vertex finished before anyone drew it reads Gone.
			w := r.ready[0]
			r.take(w)
			a := r.lease(1, w, engine.Granted)
			r.now = r.now.Add(taskTimeout / 2)
			r.flag(w)
			r.deliver(1, w, a, r.compute(w), true)
			r.lease(2, w, engine.Gone)
		}},
		{"MaxAttempts-th expiry fails the job, revocations do not count", "edit", engine.Config[int32]{MaxAttempts: 2}, func(t *testing.T, r *rig) {
			r.start()
			v := r.ready[0]
			r.take(v)
			for i := 0; i < 3; i++ { // three deaths: more than MaxAttempts
				r.lease(1, v, engine.Granted)
				if revoked, requeue := r.eng.Revoke(1); revoked != 1 || len(requeue) != 1 {
					t.Fatalf("Revoke = (%d, %v)", revoked, requeue)
				}
			}
			r.lease(1, v, engine.Granted)
			r.now = r.now.Add(taskTimeout)
			if requeue, err := r.eng.Expire(r.now); err != nil || len(requeue) != 1 {
				t.Fatalf("first expiry = (%v, %v), want a requeue", requeue, err)
			}
			r.lease(2, v, engine.Granted)
			r.now = r.now.Add(taskTimeout)
			_, err := r.eng.Expire(r.now)
			if err == nil || !strings.Contains(err.Error(), "MaxAttempts") {
				t.Fatalf("second expiry = %v, want the MaxAttempts verdict", err)
			}
			r.audit() // the job is over; nothing may be left behind
			r.ready = append(r.ready, v)
		}},
		{"StealFrom takes the newer half and leaves racing vertices", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			r.start()
			r.run(3, r.ready[len(r.ready)-1]) // warms the profile
			backlog := append([]int32(nil), r.ready[:6]...)
			for slot, v := range backlog {
				r.take(v)
				if _, out := r.eng.Lease(1, v, slot, r.now); out != engine.Granted {
					t.Fatalf("Lease(vertex %d) = %v", v, out)
				}
			}
			// The newest entry races a backup on member 2: not stealable.
			r.now = r.now.Add(3 * time.Second)
			racing := backlog[5]
			flagged := r.eng.FlagStragglers(r.now, 0.95, 2, 0, 1, 6)
			if len(flagged) != 6 {
				t.Fatalf("flagged %v, want the whole backlog", flagged)
			}
			r.lease(2, racing, engine.Backup)
			if victim, depth := r.eng.Deepest(4); victim != 1 || depth != 6 {
				t.Fatalf("Deepest = (%d, %d), want member 1 six deep", victim, depth)
			}
			stolen := r.eng.StealFrom(1, 4)
			if len(stolen) != 2 || stolen[0] != backlog[3] || stolen[1] != backlog[4] {
				t.Fatalf("stolen %v, want %v: the newer half without the racing vertex", stolen, backlog[3:5])
			}
			if st := r.eng.Counters().Stats(); st.Steals != 2 || r.eng.Load(1) != 4 {
				t.Fatalf("steals = %d, victim load = %d; want 2 and 4", st.Steals, r.eng.Load(1))
			}
			if again := r.eng.StealFrom(2, 4); again != nil {
				t.Fatalf("stole %v from a one-deep backlog", again)
			}
			// The stolen vertices still carry their straggler flag; member 4
			// holds nothing of them, so its draws are plain backups refused
			// for want of an original — Gone — until the flag is spent.
			for _, v := range stolen {
				r.lease(4, v, engine.Gone)
				r.ready = append(r.ready, v)
			}
			// Everything else runs to its end where it is.
			for _, v := range backlog[:3] {
				attempt := r.lease(5, v, engine.Backup)
				r.deliver(5, v, attempt, r.compute(v), true)
			}
			r.eng.Revoke(1)
			r.eng.Revoke(2)
			r.ready = append(r.ready, racing)
		}},
		{"Deepest breaks ties toward the lowest member id", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			r.start()
			for i, member := range []int{5, 3, 5, 3, 7} {
				r.lease(member, r.ready[i], engine.Granted)
			}
			for _, c := range []struct{ except, victim, depth int }{{0, 3, 2}, {3, 5, 2}, {5, 3, 2}} {
				if victim, depth := r.eng.Deepest(c.except); victim != c.victim || depth != c.depth {
					t.Fatalf("Deepest(%d) = (%d, %d), want (%d, %d)", c.except, victim, depth, c.victim, c.depth)
				}
			}
			for _, member := range []int{3, 5, 7} {
				r.eng.Revoke(member)
			}
			if _, depth := r.eng.Deepest(0); depth != 0 {
				t.Fatalf("Deepest on an idle job = depth %d", depth)
			}
		}},
		{"a shipped batch is accounted, an unshipped lease taken back", "nussinov", engine.Config[int32]{}, func(t *testing.T, r *rig) {
			r.start()
			r.run(3, r.ready[2])
			v, w := r.ready[0], r.ready[1]
			r.take(v)
			r.take(w)
			a := r.lease(1, v, engine.Granted)
			b := r.lease(1, w, engine.Granted)
			r.eng.Shipped(1, 2, 300)
			if got := r.eng.Inflight(); got != 2 || r.eng.Load(1) != 2 {
				t.Fatalf("Inflight = %d, Load = %d, want 2 and 2", got, r.eng.Load(1))
			}
			r.eng.Unlease(w, b) // the job ended under it: not requeued by the engine
			if r.eng.Inflight() != 1 || r.eng.LiveAttempts(w) != 0 {
				t.Fatalf("after Unlease: Inflight = %d, LiveAttempts = %d", r.eng.Inflight(), r.eng.LiveAttempts(w))
			}
			r.now = r.now.Add(3 * time.Second)
			r.deliver(1, v, a, r.compute(v), true)
			st, sample := r.eng.Counters().Stats(), r.eng.Sample()
			if st.TaskBytes != 300 || st.BatchMessages != 1 || st.Dispatches != 3 {
				t.Fatalf("stats = %+v, want 300 task bytes in one batch message, 3 dispatches", st)
			}
			if sample.Dispatches != 3 || sample.TaskBytes != 300 || sample.ProfileSamples != 2 ||
				sample.ProfileP50 != time.Second || sample.ProfileP95 != time.Second {
				t.Fatalf("sample = %+v, want 2 observations with the quantiles on the 1s one", sample)
			}
			if r.eng.Cached() {
				t.Fatal("a job without a cache reads Cached")
			}
			r.ready = append(r.ready, w)
		}},
		{"reclaim drops a block at its last reader and never earlier", "swgg", engine.Config[int32]{Reclaim: true}, func(t *testing.T, r *rig) {
			r.start()
			g := r.eng.Graph()
			committed := make(map[int32]bool)
			for len(r.ready) > 0 {
				v := r.ready[0]
				r.run(1, v)
				committed[v] = true
				for _, d := range g.Existing() {
					if !committed[d] {
						continue
					}
					readers, waiting := 0, 0
					for _, u := range g.Existing() {
						for _, dep := range g.Vertex(u).DataPre {
							if dep == d {
								readers++
								if !committed[u] {
									waiting++
								}
							}
						}
					}
					held := r.eng.Store().Get(g.Geom.PosOf(d)) != nil
					if want := readers == 0 || waiting > 0; held != want {
						t.Fatalf("after vertex %d: block %d held = %v with %d of %d readers waiting", v, d, held, waiting, readers)
					}
				}
			}
			r.audit()
			r.want = nil // the store holds the unread blocks only, by design
		}},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			r := newRig(t, sc.app, sc.cfg)
			sc.run(t, r)
			r.finish()
		})
	}
}

// A block that covers another vertex's region is refused from all three
// places untrusted bytes come from: a result fails the job, a checkpoint
// record refuses the log, a cache entry is a miss and is recomputed. The
// store's Put would panic on any of them.
func TestWrongRectBlockRefused(t *testing.T) {
	prob, proc, _ := problem(t, "edit")
	foreign := forgedBlock(t, prob.Codec, dag.Rect{Row0: 4, Col0: 8, Rows: 4, Cols: 4})
	wantMismatch := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "does not match geometry rect") {
			t.Fatalf("%s: err = %v, want the rect mismatch", what, err)
		}
	}

	r := newRig(t, "edit", engine.Config[int32]{})
	r.start()
	attempt := r.lease(1, 0, engine.Granted)
	_, accepted, err := r.eng.Complete(1, 0, attempt, foreign, r.now)
	if !accepted {
		t.Fatal("a live attempt's result read as stale")
	}
	wantMismatch("result", err)
	r.audit()

	r = newRig(t, "edit", engine.Config[int32]{})
	wantMismatch("checkpoint record", r.eng.Replay(0, foreign))
	r.start()
	r.finish() // the refused record left the job intact

	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := dag.MatrixGeometry(prob.Size, proc).Rect(dag.Pos{})
	store.PutBlock(cas.BlockKey("edit16", root.Row0, root.Col0, root.Rows, root.Cols, nil), foreign)
	r = newRig(t, "edit", engine.Config[int32]{Cache: store, CacheKey: "edit16"})
	r.start()
	if st := r.eng.Counters().Stats(); st.CacheHits != 0 || st.CacheMisses != 1 || len(r.ready) != 1 {
		t.Fatalf("poisoned entry: stats %+v, ready %v; want one miss and the root to compute", st, r.ready)
	}
	r.finish()
}

// A second job over a warm cache never leases anything: Frontier absorbs
// the roots, and every hit cascades into what it unlocks.
func TestWarmCacheAbsorbsWholeJob(t *testing.T) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"edit", "nussinov", "swgg"} {
		cfg := engine.Config[int32]{Cache: store, CacheKey: app}
		cold := newRig(t, app, cfg)
		cold.start()
		cold.finish()
		total := int64(cold.eng.Graph().N)
		if st := cold.eng.Counters().Stats(); st.CacheHits != 0 || st.CacheMisses != total || st.Tasks != total {
			t.Fatalf("%s cold: %+v, want %d misses and tasks", app, st, total)
		}

		progress := 0
		cfg.OnProgress = func(done, of int) { progress = done }
		warm := newRig(t, app, cfg)
		warm.start()
		if len(warm.ready) != 0 || !warm.eng.Finished() {
			t.Fatalf("%s warm: ready %v, %d remaining", app, warm.ready, warm.eng.Remaining())
		}
		if !warm.eng.Cached() || warm.eng.ResultKey(0) != cold.eng.ResultKey(0) || warm.eng.ResultKey(0) == (cas.Key{}) {
			t.Fatalf("%s warm: root content key %v, cold run's %v", app, warm.eng.ResultKey(0), cold.eng.ResultKey(0))
		}
		if st := warm.eng.Counters().Stats(); st.CacheHits != total || st.Dispatches != 0 || st.Tasks != 0 || progress != int(total) {
			t.Fatalf("%s warm: %+v, progress %d; want %d hits and no dispatch", app, st, progress, total)
		}
		warm.finish()
	}
}

// A fully warm job hashes no payload: every hit commits under the content
// key the store kept when the bytes entered it, and nothing is put back. Its
// content keys are the cold run's, and the cold run hashed each result once.
func TestWarmJobHashesNoPayload(t *testing.T) {
	var hashed int
	defer engine.SetHashHook(func([]byte) { hashed++ })()
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"edit", "nussinov", "swgg"} {
		cfg := engine.Config[int32]{Cache: store, CacheKey: app, Delta: true}
		hashed = 0
		cold := newRig(t, app, cfg)
		cold.start()
		cold.finish()
		if n := cold.eng.Graph().N; hashed != n {
			t.Fatalf("%s cold: %d payloads hashed for %d results", app, hashed, n)
		}

		hashed = 0
		warm := newRig(t, app, cfg)
		warm.start()
		if !warm.eng.Finished() || hashed != 0 {
			t.Fatalf("%s warm: finished %v, %d payloads hashed", app, warm.eng.Finished(), hashed)
		}
		for _, v := range warm.eng.Graph().Existing() {
			if got, want := warm.eng.ResultKey(v), cold.eng.ResultKey(v); got != want || got == (cas.Key{}) {
				t.Fatalf("%s warm: vertex %d content key %v, cold run's %v", app, v, got, want)
			}
		}
		warm.finish()
	}
}

// BenchmarkAbsorbWarm absorbs a 64-vertex wavefront of 32×32 blocks from a
// warm store: Frontier's cascade of probe, decode and commit per vertex.
func BenchmarkAbsorbWarm(b *testing.B) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config[int32]{Cache: store, CacheKey: "edit256"}
	cold := newRig(b, "edit256", cfg)
	cold.start()
	cold.finish()
	prob, proc, _ := problem(b, "edit256")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := engine.New(prob.Kernel.Pattern(), prob.Codec, prob.Size, proc, cfg)
		if _, err := j.Frontier(); err != nil || !j.Finished() {
			b.Fatalf("warm job: err %v, %d vertices remain", err, j.Remaining())
		}
	}
}

// Replay restores a prefix, refuses what is not a valid continuation, and
// a replayed engine resumes to the sequential answer with the restored
// vertices counted and written through to its own checkpoint.
func TestReplayResumes(t *testing.T) {
	var log bytes.Buffer
	first := newRig(t, "nussinov", engine.Config[int32]{})
	first.eng.SetCheckpoint(checkpoint.NewWriter(&log))
	first.start()
	for i := 0; i < 12; i++ {
		first.run(1, first.ready[0])
	}

	var relog bytes.Buffer
	second := newRig(t, "nussinov", engine.Config[int32]{})
	second.eng.SetCheckpoint(checkpoint.NewWriter(&relog))
	if n, err := checkpoint.Replay(bytes.NewReader(log.Bytes()), second.eng.Replay); err != nil || n != 12 {
		t.Fatalf("Replay = (%d, %v), want 12 records", n, err)
	}
	for what, v := range map[string]int32{"a committed vertex": 0, "a hole of the triangle": 8, "an id outside the grid": 1 << 20, "a negative id": -1} {
		if err := second.eng.Replay(v, nil); err == nil {
			t.Fatalf("Replay accepted %s", what)
		}
	}
	if !bytes.Equal(relog.Bytes(), log.Bytes()) {
		t.Fatal("replayed records were not written through to the new checkpoint")
	}
	second.start()
	second.finish()
	if st := second.eng.Counters().Stats(); st.Restored != 12 || st.Restored+st.Tasks != int64(second.eng.Graph().N) {
		t.Fatalf("stats = %+v, want 12 restored and the rest computed", st)
	}
}

// TaskPayload ships, of each dependency, what the pattern declares the
// vertex reads: for the wavefront a row, a column and a corner, cut from the
// committed blocks. A region never enters a known-set, so the vertex gets it
// again when it is dispatched again — to another member after a timeout, or
// to the same one — while a dependency the member holds whole is a
// whole-block reference, the regions beside it under keys derived from
// their blocks' without a hash of a cell. Without a known-set the payload
// is plain. A pattern that declares nothing ships whole blocks, noted once.
func TestTaskPayloadShipsDeclaredRegions(t *testing.T) {
	r := newRig(t, "edit", engine.Config[int32]{Delta: true})
	r.start()
	r.finish()
	const v, north, west, corner = 5, 1, 4, 0 // block (1,1) of the 4x4 grid and what it reads
	regions := []dag.Rect{
		{Row0: 3, Col0: 4, Rows: 1, Cols: 4},
		{Row0: 4, Col0: 3, Rows: 4, Cols: 1},
		{Row0: 3, Col0: 3, Rows: 1, Cols: 1},
	}
	check := func(label string, blocks []*matrix.Block[int32], want []dag.Rect) {
		t.Helper()
		if len(blocks) != len(want) {
			t.Fatalf("%s: %d blocks, want %d", label, len(blocks), len(want))
		}
		for k, b := range blocks {
			if b.Rect != want[k] {
				t.Fatalf("%s: block %d covers %v, want %v", label, k, b.Rect, want[k])
			}
			for i := b.Rect.Row0; i < b.Rect.Row0+b.Rect.Rows; i++ {
				for j := b.Rect.Col0; j < b.Rect.Col0+b.Rect.Cols; j++ {
					if b.At(i, j) != r.want[i][j] {
						t.Fatalf("%s: cell (%d,%d) = %d, want %d", label, i, j, b.At(i, j), r.want[i][j])
					}
				}
			}
		}
	}
	whole := r.eng.Store().Get(dag.Pos{Row: 0, Col: 1})
	// ship decodes v's payload as a worker would, resolving a reference to
	// the north block, and returns the keys it resolved and recorded.
	ship := func(label string, known engine.Known, want []dag.Rect) (resolved, recorded [][32]byte) {
		t.Helper()
		payload, err := r.eng.TaskPayload(v, known)
		if err != nil {
			t.Fatal(err)
		}
		blocks, keyed, err := matrix.DecodeBlocksAny(r.prob.Codec, payload,
			func(k [32]byte) (*matrix.Block[int32], bool) { resolved = append(resolved, k); return whole, true },
			func(k [32]byte, _ *matrix.Block[int32]) { recorded = append(recorded, k) })
		if err != nil || keyed != (known != nil) {
			t.Fatalf("%s: keyed = %v, err = %v", label, keyed, err)
		}
		check(label, blocks, want)
		return resolved, recorded
	}
	var noStore *cas.Store
	a, b := noStore.NewPeerSet(), noStore.NewPeerSet()
	before := r.eng.Counters().Stats()
	ship("no known-set", nil, regions)
	ship("first dispatch", a, regions)
	ship("redispatch to another member", b, regions)
	ship("redispatch to the same member", a, regions)
	if a.Len()+b.Len() != 0 {
		t.Fatalf("shipped regions entered the known-sets: %d and %d keys", a.Len(), b.Len())
	}
	a.Note(r.eng.ResultKey(north)) // the member computed the north block
	resolved, recorded := ship("north held whole", a, []dag.Rect{regions[1], regions[2], whole.Rect})
	after := r.eng.Counters().Stats()
	if shipped, skipped := after.BlocksShipped-before.BlocksShipped, after.BlocksSkipped-before.BlocksSkipped; shipped != 14 || skipped != 1 {
		t.Fatalf("BlocksShipped +%d, BlocksSkipped +%d; want +14 and +1", shipped, skipped)
	}
	if len(resolved) != 1 || resolved[0] != r.eng.ResultKey(north) {
		t.Fatalf("the held block is referenced as %x, want its ResultKey", resolved)
	}
	for k, d := range []int32{west, corner} {
		reg := regions[k+1]
		if want := cas.RegionKey(r.eng.ResultKey(d), reg.Row0, reg.Col0, reg.Rows, reg.Cols); len(recorded) != 2 || recorded[k] != want {
			t.Fatalf("region %v travels under %x, want the key derived from its block's", reg, recorded)
		}
	}

	s := newRig(t, "swgg", engine.Config[int32]{Delta: true})
	s.start()
	s.finish()
	deps := s.eng.Graph().Vertex(v).DataPre
	byKey := make(map[[32]byte]*matrix.Block[int32])
	for _, d := range deps {
		byKey[s.eng.ResultKey(d)] = s.eng.Store().Get(s.eng.Graph().Geom.PosOf(d))
	}
	held := noStore.NewPeerSet()
	for pass, want := range []int{len(deps), 0} {
		payload, err := s.eng.TaskPayload(v, held)
		if err != nil {
			t.Fatal(err)
		}
		full := 0
		blocks, _, err := matrix.DecodeBlocksAny(s.prob.Codec, payload,
			func(k [32]byte) (*matrix.Block[int32], bool) { b, ok := byKey[k]; return b, ok },
			func([32]byte, *matrix.Block[int32]) { full++ })
		if err != nil || full != want || len(blocks) != len(deps) || held.Len() != len(deps) {
			t.Fatalf("whole-block pattern, pass %d: %d blocks shipped (want %d) of %d, %d of %d dependencies noted, err %v",
				pass, full, want, len(blocks), held.Len(), len(deps), err)
		}
	}
}
