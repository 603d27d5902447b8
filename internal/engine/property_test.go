package engine_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/sched"
)

// attemptRef is one task frame a worker holds: the test keeps it until the
// worker answers, however long ago the engine retired the attempt, so that
// delivering "a random frame" is as often a late answer as a live one.
type attemptRef struct {
	member     int
	v, attempt int32
}

// checkedOrder is a shipped draw order under the invariants every order owes
// whoever queues into it, checked at each call: a popped id was pushed and
// not popped since (with multiplicity: a flagged vertex whose original then
// expires is rightly queued twice), Pop hands out no more than asked, Len is
// what was pushed and not popped — so nothing is lost across a requeue,
// whatever brought it: Undraw, Held, Revoke, Expire, a steal — and under BCW
// a member is never handed a vertex it does not own.
type checkedOrder struct {
	sched.Order
	failf  func(format string, args ...any)
	queued map[int32]int
	total  int
	owner  func(v int32) int // nil unless the order is BCW
}

func (c *checkedOrder) Push(ids ...int32) {
	for _, v := range ids {
		c.queued[v]++
	}
	c.total += len(ids)
	c.Order.Push(ids...)
	c.checkLen()
}

func (c *checkedOrder) Pop(member, n int, dst []int32) []int32 {
	all := c.Order.Pop(member, n, dst)
	ids := all[len(dst):]
	if len(ids) > n {
		c.failf("Pop(%d, %d) handed out %v", member, n, ids)
	}
	for _, v := range ids {
		if c.queued[v] == 0 {
			c.failf("Pop(%d, %d) handed out vertex %d, which is not queued", member, n, v)
		}
		c.queued[v]--
		if c.owner != nil && c.owner(v) != member {
			c.failf("BCW handed member %d vertex %d, which member %d owns", member, v, c.owner(v))
		}
	}
	c.total -= len(ids)
	c.checkLen()
	return all
}

func (c *checkedOrder) checkLen() {
	if got := c.Order.Len(); got != c.total {
		c.failf("order holds %d vertices, %d were pushed and not popped", got, c.total)
	}
}

// randomOrder draws one of the shipped orders over g for members
// 0..members-1: the LIFO stack, BCW with a random column run, or affinity
// over a seeded score.
func randomOrder(rng *rand.Rand, g *dag.Graph, members int, failf func(string, ...any)) *checkedOrder {
	c := &checkedOrder{failf: failf, queued: make(map[int32]int)}
	switch rng.Intn(3) {
	case 0:
		c.Order = &sched.LIFO{}
	case 1:
		blockCols := 1 + rng.Intn(3)
		c.Order = sched.NewBlockCyclic(g, members, blockCols)
		c.owner = func(v int32) int { return sched.Owner(g.Vertex(v).Pos, blockCols, members) }
	case 2:
		salt := rng.Intn(1 << 16)
		c.Order = sched.NewAffinity(func(member int, v int32) int { return (salt + 7*member + 13*int(v)) % 5 })
	}
	return c
}

// TestRandomSchedules drives the shipped engine through generated
// schedules: for each dependency shape and each seed a single-threaded loop
// draws random events — a random member draws from the seed's draw order
// (randomOrder) and leases the vertex (sometimes a flagged one), a result
// is delivered, delivered twice, a retired attempt's delivered, deadlines
// pass and Expire, a member is Revoked, robbed, stragglers are flagged —
// and checks after every step that no vertex became ready before all its
// predecessors committed, none committed twice, no vertex carries more than
// two live attempts, and the order kept its own invariants (checkedOrder);
// at the end nothing may have leaked and the matrix must be bit-identical
// to the sequential one. The pool subtest does the same to the scheduler
// above the jobs, four of them at once (randomPoolSchedule). A failure names
// its seed: rerun with that seed alone to replay it.
func TestRandomSchedules(t *testing.T) {
	const seeds = 200
	apps := []string{"edit", "nussinov", "swgg"}
	// A vertex's block does not depend on the schedule, so one reference
	// pass per shape computes every result frame for all seeds.
	results := make(map[string]map[int32][]byte)
	wants := make(map[string][][]int32)
	for _, app := range apps {
		ref := newRig(t, app, engine.Config[int32]{})
		ref.start()
		results[app] = make(map[int32][]byte)
		for len(ref.ready) > 0 {
			v := ref.ready[0]
			results[app][v] = ref.compute(v)
			ref.take(v)
			ref.deliver(1, v, ref.lease(1, v, engine.Granted), results[app][v], true)
		}
		ref.finish()
		wants[app] = ref.want
	}
	for _, app := range apps {
		t.Run(app, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				randomSchedule(t, app, seed, results[app], wants[app])
			}
		})
	}
	t.Run("pool", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			randomPoolSchedule(t, seed, results, wants)
		}
	})
	t.Run("thread", func(t *testing.T) {
		for _, app := range apps {
			var att engine.Attempts // one core, reset per block like the thread level's
			given := 0
			for seed := int64(0); seed < seeds; seed++ {
				if randomThreadSchedule(t, &att, app, seed) {
					given++
				}
			}
			if given == 0 || given == seeds {
				t.Fatalf("%s: %d of %d seeds ended at MaxAttempts, want some and not all", app, given, seeds)
			}
		}
	})
}

// randomThreadSchedule drives the per-vertex core the way core's thread
// level does over one block's slave DAG (here the shape's own DAG): threads
// compute threads draw from the seed's order and start an attempt, with no
// deadline and never a backup, and a thread's attempt ends accepted or in
// a panic (Fail), which queues the vertex again. Threads are never
// revoked, stolen from or timed out. Checked at each step: a vertex is
// pushed only once its predecessors were accepted and never after the
// last accept, Start refuses exactly the accepted vertices, Accept
// succeeds exactly for a live attempt, the first of a vertex, no vertex
// has two live attempts, and an error comes exactly at a vertex's
// MaxAttempts-th panicked live attempt. One seed in four runs with a
// MaxAttempts of 1 to 3; a seed that does not end at that error (gaveUp)
// must accept every vertex once and leave no attempt live.
func randomThreadSchedule(t *testing.T, att *engine.Attempts, app string, seed int64) (gaveUp bool) {
	prob, proc, _ := problem(t, app)
	g := dag.Build(prob.Kernel.Pattern(), dag.MatrixGeometry(prob.Size, proc))
	rng := rand.New(rand.NewSource(seed))
	threads, maxAttempts := 1+rng.Intn(4), 1<<30
	if seed%4 == 0 {
		maxAttempts = 1 + rng.Intn(3)
	}
	roots := att.Reset(g, maxAttempts, nil)
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("thread %s seed %d: "+format, append([]any{app, seed}, args...)...)
	}
	preds := predecessors(g)
	queue := randomOrder(rng, g, threads, failf)
	accepted := make(map[int32]bool)
	live := make(map[int32][]int32) // the model: each vertex's live attempts
	failures := make(map[int32]int)
	running := make([]*attemptRef, threads) // what each thread computes, live or not
	last := false
	push := func(ids ...int32) {
		for _, v := range ids {
			if last {
				failf("vertex %d pushed after the last accept", v)
			}
			for _, p := range preds[v] {
				if !accepted[p] {
					failf("vertex %d pushed before its predecessor %d was accepted", v, p)
				}
			}
		}
		queue.Push(ids...)
	}
	retire := func(v, a int32) (wasLive bool) {
		k := slices.Index(live[v], a)
		if k < 0 {
			return false
		}
		live[v] = slices.Delete(live[v], k, k+1)
		return true
	}

	push(roots...)
	for step := 0; att.Remaining() > 0; step++ {
		// Past the random phase threads only draw and deliver, so every
		// seed terminates whatever faults it drew.
		event := rng.Intn(4)
		if step > 400 {
			event = rng.Intn(2)
		}
		switch w := rng.Intn(threads); {
		case (event == 0 || event == 3) && running[w] == nil:
			ids := queue.Pop(w, 1, nil)
			if len(ids) == 0 {
				break
			}
			v := ids[0]
			a, ok := att.Start(v, time.Time{}, false)
			if ok == accepted[v] {
				failf("Start of vertex %d = %v, accepted %v", v, ok, accepted[v])
			}
			if ok {
				if len(live[v]) > 0 {
					failf("vertex %d started beside its live attempts %v", v, live[v])
				}
				live[v] = append(live[v], a)
				running[w] = &attemptRef{w, v, a}
			}
		case event == 1 && running[w] != nil, event == 2 && running[w] != nil:
			f := *running[w]
			running[w] = nil
			if event == 2 { // the attempt panics
				wasLive := retire(f.v, f.attempt)
				uncovered, err := att.Fail(f.v, f.attempt)
				if wasLive {
					failures[f.v]++
				}
				if at := wasLive && failures[f.v] >= maxAttempts; at != (err != nil) {
					failf("panic %d of vertex %d (live %v) under MaxAttempts %d: err %v", failures[f.v], f.v, wasLive, maxAttempts, err)
				} else if at {
					return true
				}
				if want := wasLive && len(live[f.v]) == 0; uncovered != want {
					failf("Fail(%+v) uncovered %v, want %v", f, uncovered, want)
				}
				if uncovered {
					push(f.v)
				}
				break
			}
			wasLive := slices.Contains(live[f.v], f.attempt)
			ready, ok := att.Accept(nil, f.v, f.attempt)
			if ok != wasLive {
				failf("Accept(%+v) = %v, live %v", f, ok, wasLive)
			}
			if ok {
				if accepted[f.v] {
					failf("vertex %d accepted twice", f.v)
				}
				accepted[f.v] = true
				delete(live, f.v)
				push(ready...)
				last = att.Remaining() == 0
			}
		}
		if step > 100000 {
			failf("no end in sight: %d vertices remain, %d queued", att.Remaining(), queue.Len())
		}
	}
	if len(accepted) != g.N || att.Outstanding() != 0 {
		failf("%d of %d vertices accepted, %d attempts outstanding", len(accepted), g.N, att.Outstanding())
	}
	return false
}

func randomSchedule(t *testing.T, app string, seed int64, results map[int32][]byte, want [][]int32) {
	prob, proc, _ := problem(t, app)
	eng := engine.New(prob.Kernel.Pattern(), prob.Codec, prob.Size, proc,
		engine.Config[int32]{TaskTimeout: taskTimeout, MaxAttempts: 1 << 30})
	rng := rand.New(rand.NewSource(seed))
	g := eng.Graph()
	existing := g.Existing()
	preds := predecessors(g)
	const members = 4
	now := time.Unix(0, 0)
	committed := make(map[int32]bool)
	var frames []attemptRef // granted and not yet answered
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s seed %d: "+format, append([]any{app, seed}, args...)...)
	}
	queue := randomOrder(rng, g, members, failf) // the driver's ready set, requeues and flags included
	enqueue := func(ready []int32) {
		for _, v := range ready {
			if committed[v] {
				failf("vertex %d handed out ready after it committed", v)
			}
			for _, p := range preds[v] {
				if !committed[p] {
					failf("vertex %d ready before its predecessor %d committed", v, p)
				}
			}
		}
		queue.Push(ready...)
	}
	deliver := func(f attemptRef, twice bool) {
		ready, accepted, err := eng.Complete(f.member, f.v, f.attempt, results[f.v], now)
		if err != nil {
			failf("Complete(%+v): %v", f, err)
		}
		if accepted {
			if committed[f.v] {
				failf("vertex %d committed twice", f.v)
			}
			committed[f.v] = true
			enqueue(ready)
		}
		if twice {
			if _, again, _ := eng.Complete(f.member, f.v, f.attempt, results[f.v], now); again {
				failf("the same frame %+v was accepted twice", f)
			}
		}
	}
	lease := func(v int32, member int) {
		attempt, out := eng.Lease(member, v, rng.Intn(3), now)
		switch out {
		case engine.Granted, engine.Backup:
			frames = append(frames, attemptRef{member, v, attempt})
		case engine.Held:
			queue.Push(v)
		}
	}

	ready, err := eng.Frontier()
	if err != nil {
		failf("Frontier: %v", err)
	}
	enqueue(ready)
	for step := 0; !eng.Finished(); step++ {
		now = now.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
		// Past the random phase the loop only leases and delivers, so every
		// seed terminates whatever faults it drew.
		event := rng.Intn(10)
		if step > 400 {
			event = rng.Intn(4)
		}
		switch {
		case event < 3:
			member := rng.Intn(members)
			for _, v := range queue.Pop(member, 1+rng.Intn(3), nil) {
				lease(v, member)
			}
		case event < 5:
			if len(frames) > 0 {
				i := rng.Intn(len(frames))
				f := frames[i]
				frames = append(frames[:i], frames[i+1:]...)
				deliver(f, event == 4)
			}
		case event == 5:
			now = now.Add(time.Duration(rng.Intn(int(2 * taskTimeout))))
			requeue, err := eng.Expire(now)
			if err != nil {
				failf("Expire: %v", err)
			}
			queue.Push(requeue...)
		case event == 6:
			_, requeue := eng.Revoke(rng.Intn(members))
			queue.Push(requeue...)
		case event == 7:
			thief := rng.Intn(members)
			if victim, depth := eng.Deepest(thief); depth >= 2 {
				queue.Push(eng.StealFrom(victim, thief)...)
			}
		default:
			queue.Push(eng.FlagStragglers(now, 0.5, 1, 0, 1, 2)...)
		}
		for _, v := range existing {
			if n := eng.LiveAttempts(v); n > 2 {
				failf("step %d: vertex %d has %d live attempts", step, v, n)
			}
		}
		if step > 100000 {
			failf("no end in sight: %d vertices remain, %d queued, %d frames", eng.Remaining(), queue.Len(), len(frames))
		}
	}
	if n := eng.Leaked(); n != 0 {
		failf("%d register/lease entries leaked", n)
	}
	if len(committed) != g.N {
		failf("%d of %d vertices committed", len(committed), g.N)
	}
	if i, j, differ := firstDiff(eng.Store().Assemble(), want); differ {
		failf("cell (%d,%d) differs from the sequential matrix", i, j)
	}
}

// predecessors inverts the successor lists: the DAG's real edges.
func predecessors(g *dag.Graph) map[int32][]int32 {
	preds := make(map[int32][]int32)
	for _, u := range g.Existing() {
		for _, s := range g.Vertex(u).Post {
			preds[s] = append(preds[s], u)
		}
	}
	return preds
}

// firstDiff names the first cell in which got is not want.
func firstDiff(got, want [][]int32) (i, j int, differ bool) {
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// A thread-level block — every attempt started with a zero deadline, some
// failed and started again, each vertex accepted once — puts nothing in the
// overtime queue: nothing there can expire, so nothing is watched. A
// processor-level start, with a deadline, is watched until its accept.
func TestThreadLevelWatchesNothing(t *testing.T) {
	prob, proc, _ := problem(t, "edit")
	g := dag.Build(prob.Kernel.Pattern(), dag.MatrixGeometry(prob.Size, proc))
	var att engine.Attempts
	ready := att.Reset(g, 3, nil)
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		attempt, ok := att.Start(v, time.Time{}, false)
		if v%3 == 0 {
			if _, err := att.Fail(v, attempt); err != nil {
				t.Fatalf("vertex %d: %v", v, err)
			}
			attempt, ok = att.Start(v, time.Time{}, false)
		}
		if n := att.Unwatch(); !ok || n != 0 {
			t.Fatalf("vertex %d: Start ok %v, %d attempts watched, want none", v, ok, n)
		}
		next, ok := att.Accept(nil, v, attempt)
		if !ok {
			t.Fatalf("vertex %d: the live attempt %d was refused", v, attempt)
		}
		ready = append(ready, next...)
	}
	if att.Remaining() != 0 {
		t.Fatalf("%d vertices left, want none", att.Remaining())
	}

	v := att.Reset(g, 3, nil)[0]
	if att.Start(v, time.Unix(1, 0), false); att.Unwatch() != 1 {
		t.Fatal("a start with a deadline is not watched")
	}
}
