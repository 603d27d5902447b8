package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/trace"
)

func mustProblem(t *testing.T, kernel string, n int, seed int64) JobSpec {
	t.Helper()
	p, _, err := BuildProblem(kernel, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{Name: kernel, Problem: p}
}

func TestBuildProblemErrors(t *testing.T) {
	if _, _, err := BuildProblem("quicksort", 8, 1); err == nil {
		t.Fatal("want error for unknown kernel")
	}
	if _, _, err := BuildProblem("editdist", 0, 1); err == nil {
		t.Fatal("want error for zero size")
	}
}

// TestDeterministicTrace asserts the core contract at unit scale: the
// same script and seed give byte-identical traces; a different seed
// gives a different schedule but bit-identical DP results.
func TestDeterministicTrace(t *testing.T) {
	run := func(seed int64) (string, [][]int32) {
		c := New(Options{Workers: 16, Seed: seed, Cost: time.Millisecond, Jitter: 0.4, HeartbeatInterval: 20 * time.Millisecond,
			Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond}})
		spec := mustProblem(t, "editdist", 64, 7)
		j, err := c.Submit(0, spec)
		if err != nil {
			t.Fatal(err)
		}
		c.KillAt(30*time.Millisecond, 3)
		c.JoinAt(40*time.Millisecond, 4)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if j.Err() != nil {
			t.Fatal(j.Err())
		}
		return c.Trace(), j.Result()
	}
	tr1, res1 := run(1)
	tr2, res2 := run(1)
	if tr1 != tr2 {
		t.Fatal("same seed produced different traces")
	}
	tr3, res3 := run(2)
	if tr3 == tr1 {
		t.Fatal("different seed produced an identical schedule")
	}
	if !equalMatrix(res1, res2) || !equalMatrix(res1, res3) {
		t.Fatal("DP results are seed-dependent")
	}
	_, ref, err := BuildProblem("editdist", 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMatrix(res1, ref) {
		t.Fatal("simulated result differs from the sequential reference")
	}
}

// TestPartitionZombie partitions a slow worker past the sweep window:
// its leases are revoked and redistributed, and when the healed zombie
// finally delivers, attempt arbitration refuses the result.
func TestPartitionZombie(t *testing.T) {
	c := New(Options{Workers: 2, Seed: 3, Cost: 10 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond, HeartbeatMiss: 3,
		Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond, TaskTimeout: time.Minute}})
	j, err := c.Submit(0, mustProblem(t, "editdist", 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	c.SlowAt(0, 1, 20)                                          // w1: 200ms per task
	c.PartitionAt(15*time.Millisecond, 1, 100*time.Millisecond) // heals after the sweep declared it dead
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	st := j.Stats()
	if st.StaleResults < 1 {
		t.Fatalf("want the zombie's late result refused, got StaleResults=%d", st.StaleResults)
	}
	if st.Leaked != 0 {
		t.Fatalf("leaked %d scheduling entries", st.Leaked)
	}
	_, ref, _ := BuildProblem("editdist", 64, 5)
	if !equalMatrix(j.Result(), ref) {
		t.Fatal("result differs from the sequential reference")
	}
	deaths := 0
	for _, e := range c.tr.Events() {
		if e.Kind == trace.EvMember && e.Label == "dead" {
			deaths++
		}
	}
	if deaths != 1 {
		t.Fatalf("want exactly one sweep death, got %d", deaths)
	}
}

// TestPoisonedCacheEntryIsAMiss is the warm-cache scenario with a damaged
// store: the entry under the root vertex's key holds another vertex's
// block. The simulator's own commit used to put it in the store unchecked,
// where Store.Put panics; through the engine it is a miss like any other
// entry that does not decode to the vertex's block, and the job recomputes
// the vertex and everything behind it.
func TestPoisonedCacheEntryIsAMiss(t *testing.T) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := mustProblem(t, "editdist", 64, 9)
	spec.Proc, spec.CacheKey = dag.Square(8), "edit64"
	foreign, err := matrix.EncodeBlocks(spec.Problem.Codec,
		[]*matrix.Block[int32]{matrix.NewBlock[int32](dag.Rect{Row0: 8, Col0: 16, Rows: 8, Cols: 8})})
	if err != nil {
		t.Fatal(err)
	}
	store.PutBlock(cas.BlockKey(spec.CacheKey, 0, 0, 8, 8, nil), foreign)

	c := New(Options{Workers: 4, Seed: 7, Cost: time.Millisecond, Cache: store})
	j, err := c.Submit(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil || j.Err() != nil {
		t.Fatalf("run = %v, job = %v", err, j.Err())
	}
	if st := j.Stats(); st.CacheHits != 0 || st.CacheMisses != 64 || st.Tasks != 64 || st.Leaked != 0 {
		t.Fatalf("stats = %+v, want 64 misses, 64 computed vertices and no leak", st)
	}
	_, ref, _ := BuildProblem("editdist", 64, 9)
	if !equalMatrix(j.Result(), ref) {
		t.Fatal("result differs from the sequential reference")
	}
}

// TestMaxAttemptsPoisonsJob drives one vertex through repeated overtime
// expiries on a crawling single worker until the job is failed rather
// than retried forever.
func TestMaxAttemptsPoisonsJob(t *testing.T) {
	c := New(Options{Workers: 1, Seed: 1, Cost: 10 * time.Millisecond, Horizon: 5 * time.Minute,
		Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond, TaskTimeout: 50 * time.Millisecond, MaxAttempts: 2}})
	c.SlowAt(0, 0, 1000) // 10s per task against a 50ms timeout
	j, err := c.Submit(0, mustProblem(t, "editdist", 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if j.Err() == nil || !strings.Contains(j.Err().Error(), "MaxAttempts") {
		t.Fatalf("want MaxAttempts failure, got %v", j.Err())
	}
	if got := j.Stats().Redistributions; got < 1 {
		t.Fatalf("want at least one redistribution before giving up, got %d", got)
	}
}

// TestStealRescuesJoiner joins a fresh worker into a cluster whose only
// member hoards a deep batch backlog; with stealing on, the joiner must
// take the newer half instead of idling.
func TestStealRescuesJoiner(t *testing.T) {
	c := New(Options{Workers: 1, Seed: 9, Cost: 10 * time.Millisecond, Horizon: 10 * time.Minute,
		Pool: engine.PoolConfig{Batch: 8, Steal: true, CheckInterval: 20 * time.Millisecond, TaskTimeout: time.Minute}})
	c.SlowAt(0, 0, 10) // the incumbent crawls at 100ms per task
	j, err := c.Submit(0, mustProblem(t, "editdist", 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.JoinAt(400*time.Millisecond, 1)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	if got := j.Stats().Steals; got < 1 {
		t.Fatalf("want the joiner to steal backlog, got Steals=%d", got)
	}
}

func TestRunValidation(t *testing.T) {
	c := New(Options{Workers: 1})
	if err := c.Run(); err == nil || !strings.Contains(err.Error(), "no jobs") {
		t.Fatalf("want no-jobs error, got %v", err)
	}
	if err := c.Run(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("want run-twice error, got %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := New(Options{Workers: 1})
	if _, err := c.Submit(0, JobSpec{Name: "empty"}); err == nil {
		t.Fatal("want error for a spec without a kernel")
	}
}

// TestHorizonFailsUnfinishedJobs caps virtual time below what the job
// needs; Run must fail it and report the horizon instead of spinning.
func TestHorizonFailsUnfinishedJobs(t *testing.T) {
	c := New(Options{Workers: 1, Seed: 1, Cost: 10 * time.Millisecond, Horizon: 50 * time.Millisecond,
		Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond}})
	c.SlowAt(0, 0, 1000)
	j, err := c.Submit(0, mustProblem(t, "editdist", 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("want horizon error, got %v", err)
	}
	if j.Err() == nil {
		t.Fatal("want the unfinished job failed")
	}
	// A job scripted past the horizon must be failed as never activated.
	c2 := New(Options{Workers: 1, Horizon: 50 * time.Millisecond,
		Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond}})
	j2, err := c2.Submit(time.Hour, mustProblem(t, "editdist", 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Run(); err == nil {
		t.Fatal("want horizon error")
	}
	if j2.Err() == nil || !strings.Contains(j2.Err().Error(), "never activated") {
		t.Fatalf("want never-activated failure, got %v", j2.Err())
	}
}

// TestAllWorkersDeadStarves kills the whole fleet mid-run: the event
// queue must drain into a starvation error, not hang.
func TestAllWorkersDeadStarves(t *testing.T) {
	c := New(Options{Workers: 2, Seed: 1, Cost: 10 * time.Millisecond, Horizon: 30 * time.Second,
		Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond}})
	j, err := c.Submit(0, mustProblem(t, "editdist", 32, 3))
	if err != nil {
		t.Fatal(err)
	}
	c.KillAt(25*time.Millisecond, 0)
	c.KillAt(25*time.Millisecond, 1)
	err = c.Run()
	if err == nil {
		t.Fatal("want an error with the whole fleet dead")
	}
	if j.Err() == nil {
		t.Fatal("want the job failed")
	}
}

// TestBurstSubmitSameInstant submits three jobs at the same virtual
// instant (a burst) and checks they all finish with correct results and
// a deterministic trace.
func TestBurstSubmitSameInstant(t *testing.T) {
	run := func() (string, []*Job) {
		c := New(Options{Workers: 8, Seed: 17, Cost: 2 * time.Millisecond, Jitter: 0.2,
			Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond, Batch: 2}})
		var jobs []*Job
		for i, k := range []string{"editdist", "lcs", "swgg"} {
			spec := mustProblem(t, k, 32, int64(i+1))
			spec.Name = k
			j, err := c.Submit(5*time.Millisecond, spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Trace(), jobs
	}
	tr1, jobs1 := run()
	tr2, _ := run()
	if tr1 != tr2 {
		t.Fatal("burst submission broke trace determinism")
	}
	for i, k := range []string{"editdist", "lcs", "swgg"} {
		if jobs1[i].Err() != nil {
			t.Fatalf("%s: %v", k, jobs1[i].Err())
		}
		_, ref, _ := BuildProblem(k, 32, int64(i+1))
		if !equalMatrix(jobs1[i].Result(), ref) {
			t.Fatalf("%s result differs from the sequential reference", k)
		}
		if jobs1[i].Makespan() <= 0 {
			t.Fatalf("%s: implausible makespan %v", k, jobs1[i].Makespan())
		}
		if jobs1[i].Summary().Tasks == 0 || len(jobs1[i].Events()) == 0 {
			t.Fatalf("%s: empty trace", k)
		}
	}
}

// TestTraceHelpers covers the format and diff helpers on a live trace.
func TestTraceHelpers(t *testing.T) {
	c := New(Options{Workers: 2, Seed: 1, Cost: time.Millisecond,
		Pool: engine.PoolConfig{CheckInterval: 20 * time.Millisecond}})
	if _, err := c.Submit(0, mustProblem(t, "editdist", 16, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.reg.Live() != 2 {
		t.Fatalf("want 2 live members, got %d", c.reg.Live())
	}
	if c.Elapsed() <= 0 {
		t.Fatal("virtual time did not advance")
	}
	tr := c.Trace()
	if !strings.HasPrefix(tr, "# cluster\n") || !strings.Contains(tr, "# job ") {
		t.Fatalf("unexpected trace framing:\n%.200s", tr)
	}
	if got := firstTraceDiff("a\nb", "a\nc"); !strings.Contains(got, "line 2") {
		t.Fatalf("want a line diff, got %q", got)
	}
	if got := firstTraceDiff("a\nb", "a\nb\nc"); !strings.Contains(got, "prefix") {
		t.Fatalf("want prefix diff, got %q", got)
	}
}

// TestProtocolOrderChecker hands a simulated worker's link frames out of
// the order a real worker relies on: each is recorded as the violation
// that ends the run, and an ordered attach and detach is not.
func TestProtocolOrderChecker(t *testing.T) {
	spec := func(k comm.Kind) comm.Message { return comm.Message{Kind: k, Job: 1} }
	task, attach, detach := spec(comm.KindTask), spec(comm.KindJobSpec), spec(comm.KindJobEnd)
	for _, tc := range []struct {
		name    string
		frames  []comm.Message
		revoked bool // the driver closed the link before the last frame
		want    string
	}{
		{name: "ordered", frames: []comm.Message{attach, detach}},
		{name: "task before its spec", frames: []comm.Message{task}, want: "outside its job's JobSpec"},
		{name: "task after JobEnd", frames: []comm.Message{attach, detach, task}, want: "outside its job's JobSpec"},
		{name: "spec after JobEnd", frames: []comm.Message{attach, detach, attach}, want: "attaches a job after its JobEnd"},
		{name: "frame after revocation", frames: []comm.Message{attach}, revoked: true, want: "follows the revocation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Options{})
			if _, err := c.Submit(0, mustProblem(t, "editdist", 8, 1)); err != nil {
				t.Fatal(err)
			}
			c.activate(c.jobs[0])
			c.admit() // after the job started, so the driver sends it nothing
			w := c.workers[0]
			for i, f := range tc.frames {
				if tc.revoked && i == len(tc.frames)-1 {
					w.Close()
				}
				w.Send(f)
			}
			switch {
			case tc.want == "" && c.violation != nil:
				t.Fatalf("ordered frames refused: %v", c.violation)
			case tc.want != "" && (!errors.Is(c.violation, errProtocol) || !strings.Contains(c.violation.Error(), tc.want)):
				t.Fatalf("violation = %v, want one naming %q", c.violation, tc.want)
			}
		})
	}
}

// TestBlockCyclicIdleOwner runs BCW on two workers over a one-column grid:
// worker 1 owns nothing, so the driver refuses its idle token, which sits
// ahead of worker 0's in the queue once worker 0 finishes the root. The
// refusal must not hold worker 0's owned work back: the job finishes, on
// worker 0 alone. A third worker that joins mid-run is outside the
// schedule and owns nothing either.
func TestBlockCyclicIdleOwner(t *testing.T) {
	spec := mustProblem(t, "editdist", 32, 1)
	spec.Proc, spec.Policy = dag.Size{Rows: 4, Cols: 32}, core.PolicyBlockCyclic
	c := New(Options{Workers: 2, Seed: 1, Horizon: time.Minute})
	j, err := c.Submit(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	c.JoinAt(3*time.Millisecond/2, 1)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	_, ref, _ := BuildProblem("editdist", 32, 1)
	if j.Err() != nil || !equalMatrix(j.Result(), ref) {
		t.Fatalf("job ended with %v, or its matrix is not the reference", j.Err())
	}
	for _, e := range j.Events() {
		if e.Kind == trace.EvDispatch && e.Worker != 1 {
			t.Fatalf("member %d ran a vertex worker 0 owns: %v", e.Worker, e)
		}
	}
	if got := j.Makespan(); got != 8*time.Millisecond {
		t.Fatalf("makespan %v, want the 8 vertices back to back at the nominal 1ms", got)
	}
}

// TestServiceAndWire: a job's Service prices each block in place of Cost,
// and the wire charges each task and result frame on the worker's time,
// so the makespan is the chain's sum of both and RunStats counts the
// frames. An affinity job ships against its worker's known-set without a
// cache key: every dependency of the chain is a block its one worker
// computed.
func TestServiceAndWire(t *testing.T) {
	run := func(lat comm.LatencyModel, policy core.Policy) (*Job, time.Duration) {
		spec := mustProblem(t, "editdist", 16, 3)
		spec.Proc = dag.Size{Rows: 16, Cols: 4} // a chain of 4 vertices
		spec.Policy = policy
		spec.Service = func(r dag.Rect) time.Duration { return time.Duration(r.Rows*r.Cols) * time.Microsecond }
		c := New(Options{Workers: 1, Seed: 1, Latency: lat})
		j, err := c.Submit(0, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil || j.Err() != nil {
			t.Fatal(err, j.Err())
		}
		return j, j.Makespan()
	}
	free, span := run(comm.LatencyModel{}, core.PolicyDynamic)
	if span != 4*64*time.Microsecond {
		t.Fatalf("makespan %v on a free wire, want 4 blocks of 64 cells at 1µs", span)
	}
	st := free.RunStats()
	if st.Messages != 8 || st.PayloadBytes == 0 {
		t.Fatalf("run stats %+v, want a task and a result frame per vertex", st)
	}
	if st.BlocksSkipped != 0 {
		t.Fatalf("run stats %+v: a dynamic job without a cache key skipped a block", st)
	}
	aff, _ := run(comm.LatencyModel{}, core.PolicyAffinity)
	if st := aff.RunStats(); st.BlocksSkipped != 3 || st.BlocksShipped != 0 {
		t.Fatalf("affinity run stats %+v, want the chain's 3 dependencies skipped and none shipped", st)
	}
	_, wired := run(comm.LatencyModel{Base: time.Millisecond, PerKB: time.Millisecond}, core.PolicyDynamic)
	want := span + 8*time.Millisecond + time.Duration(st.PayloadBytes)*time.Millisecond/1024
	if d := want - wired; d < 0 || d > 8*time.Nanosecond { // each frame's PerKB term rounds down
		t.Fatalf("makespan %v on the wire, want %v: the free run's plus each frame's latency", wired, want)
	}
}
