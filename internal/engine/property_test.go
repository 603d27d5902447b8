package engine_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
)

// attemptRef is one task frame a worker holds: the test keeps it until the
// worker answers, however long ago the engine retired the attempt, so that
// delivering "a random frame" is as often a late answer as a live one.
type attemptRef struct {
	member     int
	v, attempt int32
}

// TestRandomSchedules drives the shipped engine through generated
// schedules: for each dependency shape and each seed a single-threaded loop
// draws random events — lease a queued vertex (sometimes a flagged one) to
// a random member, deliver a result, deliver it twice, deliver a retired
// attempt's, let deadlines pass and Expire, Revoke a member, steal, flag
// stragglers — and checks after every step that no vertex became ready
// before all its predecessors committed, none committed twice, and no
// vertex carries more than two live attempts; at the end nothing may have
// leaked and the matrix must be bit-identical to the sequential one. The
// pool subtest does the same to the scheduler above the jobs, four of them
// at once (randomPoolSchedule). A failure names its seed: rerun with that
// seed alone to replay it.
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
	var queue []int32       // the driver's ready queue, requeues and flags included
	var frames []attemptRef // granted and not yet answered
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s seed %d: "+format, append([]any{app, seed}, args...)...)
	}
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
		queue = append(queue, ready...)
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
			queue = append(queue, v)
		}
	}
	pop := func() int32 {
		i := rng.Intn(len(queue))
		v := queue[i]
		queue = append(queue[:i], queue[i+1:]...)
		return v
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
			if len(queue) > 0 {
				lease(pop(), 1+rng.Intn(members))
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
			queue = append(queue, requeue...)
		case event == 6:
			_, requeue := eng.Revoke(1 + rng.Intn(members))
			queue = append(queue, requeue...)
		case event == 7:
			thief := 1 + rng.Intn(members)
			if victim, depth := eng.Deepest(thief); depth >= 2 {
				queue = append(queue, eng.StealFrom(victim, thief)...)
			}
		default:
			queue = append(queue, eng.FlagStragglers(now, 0.5, 1, 0, 1, 2)...)
		}
		for _, v := range existing {
			if n := eng.LiveAttempts(v); n > 2 {
				failf("step %d: vertex %d has %d live attempts", step, v, n)
			}
		}
		if step > 100000 {
			failf("no end in sight: %d vertices remain, %d queued, %d frames", eng.Remaining(), len(queue), len(frames))
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
