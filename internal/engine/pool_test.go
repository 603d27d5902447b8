package engine_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The pool, like the job engine, needs neither a socket nor a sleep: a
// member is an integer, a sender is a call of Draw and Lease, and the
// control loop is a call of Tick with the time it is.

// poolRig is one pool under test and a job rig per job in it.
type poolRig struct {
	t    testing.TB
	pool *engine.Pool[int32]
	jobs map[int32]*rig
	now  time.Time
}

func newPoolRig(t testing.TB, cfg engine.PoolConfig) *poolRig {
	return &poolRig{t: t, pool: engine.NewPool[int32](cfg), jobs: make(map[int32]*rig), now: time.Unix(0, 0)}
}

// add builds job id on app's problem, takes its frontier and enters it in
// the pool, the way Fleet.Run admits a job.
func (p *poolRig) add(id int32, app string, jp engine.JobParams) *rig {
	p.t.Helper()
	jp = p.pool.Params(jp)
	r := newRig(p.t, app, engine.Config[int32]{TaskTimeout: jp.TaskTimeout, MaxAttempts: jp.MaxAttempts})
	r.now = p.now
	r.start()
	p.pool.Add(id, r.eng, jp, r.ready, p.now)
	r.ready = nil // the pool's stack holds them now
	p.jobs[id] = r
	return r
}

// stack enters job id with n made-up vertices queued: enough for a test
// that only draws.
func (p *poolRig) stack(id int32, n int, jp engine.JobParams) {
	p.t.Helper()
	jp = p.pool.Params(jp)
	r := newRig(p.t, "edit", engine.Config[int32]{TaskTimeout: jp.TaskTimeout, MaxAttempts: jp.MaxAttempts})
	p.pool.Add(id, r.eng, jp, make([]int32, n), p.now)
	p.jobs[id] = r
}

// draw insists the pool hands out a batch and returns it. It draws for
// member 1: to the LIFO order of most scripts one member is like another.
func (p *poolRig) draw() (int32, []int32) {
	p.t.Helper()
	id, ids, ok := p.pool.Draw(1)
	if !ok {
		p.t.Fatal("Draw found no eligible job")
	}
	return id, ids
}

// account is job id's row of Accounts.
func (p *poolRig) account(id int32) engine.Account {
	p.t.Helper()
	for _, a := range p.pool.Accounts() {
		if a.ID == id {
			return a
		}
	}
	p.t.Fatalf("job %d is not in the pool", id)
	panic("unreachable")
}

// drain is the members taking turns to serve the pool until it is empty:
// draw, lease, compute, deliver, and each job that commits its last vertex
// leaves, checked for leaks and against the sequential matrix.
func (p *poolRig) drain(members ...int) {
	p.t.Helper()
	for len(p.pool.Accounts()) > 0 {
		fed := false
		for _, member := range members {
			id, ids, ok := p.pool.Draw(member)
			if !ok {
				continue
			}
			fed = true
			r := p.jobs[id]
			grants, _ := p.pool.Lease(id, member, ids, p.now)
			for _, g := range grants {
				r.now = p.now
				r.deliver(member, g.Vertex, g.Attempt, r.compute(g.Vertex), true)
				p.pool.Ready(id, r.ready)
				r.ready = nil
			}
			if r.eng.Finished() {
				p.pool.Remove(id)
				r.finish()
			}
		}
		if !fed {
			p.t.Fatalf("Draw found nothing for any of members %v", members)
		}
	}
}

// TestFairShareWeightedConvergence draws from two always-eligible jobs with
// skewed weights: the draw counts must converge to the weight ratio and the
// deficit (the gap between normalized services) stay within one dispatch
// quantum of the lightest job.
func TestFairShareWeightedConvergence(t *testing.T) {
	const draws = 4000
	p := newPoolRig(t, engine.PoolConfig{})
	p.stack(1, draws, engine.JobParams{Weight: 1})
	p.stack(2, draws, engine.JobParams{Weight: 3})
	counts := map[int32]int{}
	for i := 0; i < draws; i++ {
		id, ids := p.draw()
		counts[id] += len(ids)
	}
	// 1:3 weights over 4000 draws → 1000:3000, within float drift.
	if got, want := counts[2], 3*counts[1]; math.Abs(float64(got-want)) > 4 {
		t.Fatalf("draw counts %v do not match the 1:3 weight ratio", counts)
	}
	if d := math.Abs(p.account(1).Served - p.account(2).Served); d > 1+1e-9 {
		t.Fatalf("normalized service diverged by %v", d)
	}
	if d := p.pool.MaxDeficit(); d <= 0 || d > 1+1e-9 {
		t.Fatalf("MaxDeficit = %v, want within one dispatch quantum", d)
	}
}

// TestFairShareEqualWeightsAlternate pins the tie-break: equal weights
// alternate strictly, a tie going to the earlier submission.
func TestFairShareEqualWeightsAlternate(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{})
	p.stack(1, 10, engine.JobParams{})
	p.stack(2, 10, engine.JobParams{})
	for i, want := range []int32{1, 2, 1, 2, 1, 2} {
		if id, _ := p.draw(); id != want {
			t.Fatalf("draw %d came from job %d, want %d", i, id, want)
		}
	}
}

// TestFairSharePriorityClasses verifies a higher class preempts the
// fair-share contest entirely while it has queued work, whatever it has
// been served, and the lower class resumes when it drains.
func TestFairSharePriorityClasses(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{})
	p.stack(1, 5, engine.JobParams{Priority: 0, Weight: 100})
	p.stack(2, 2, engine.JobParams{Priority: 2, Weight: 0.01})
	for i := 0; i < 2; i++ {
		// The second draw finds job 2 a hundred vertices' worth ahead.
		if id, _ := p.draw(); id != 2 {
			t.Fatalf("draw %d came from job %d, want the priority-2 job", i, id)
		}
	}
	if id, _ := p.draw(); id != 1 {
		t.Fatalf("drained high class: draw came from job %d, want the priority-0 job", id)
	}
}

// TestFairShareQuotaEligibility verifies the isolation bound: a job at its
// quota drops out of the contest without blocking the others, Draw refuses
// when nothing is eligible, and no quota never blocks.
func TestFairShareQuotaEligibility(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{})
	p.stack(1, 9, engine.JobParams{Quota: 2})
	p.stack(2, 0, engine.JobParams{Quota: 4}) // nothing ready
	p.stack(3, 9, engine.JobParams{Quota: 1})
	for i, want := range []int32{1, 3, 1} {
		if id, _ := p.draw(); id != want {
			t.Fatalf("draw %d came from job %d, want %d", i, id, want)
		}
	}
	// Jobs 1 and 3 have their quota drawn and unsettled, job 2 is empty.
	if id, ids, ok := p.pool.Draw(1); ok {
		t.Fatalf("Draw = job %d %v with every job at quota or empty", id, ids)
	}
	p.stack(4, 9, engine.JobParams{}) // no quota: never blocks on what it holds
	for i := 0; i < 9; i++ {
		if id, _ := p.draw(); id != 4 {
			t.Fatalf("draw %d came from job %d, want the unlimited job", i, id)
		}
	}
	// A settled draw reopens the room it took.
	p.pool.Undraw(3, []int32{0})
	if id, _ := p.draw(); id != 3 {
		t.Fatalf("draw after Undraw came from job %d, want 3", id)
	}
}

// TestPoolDrawWeightedFairShare takes the weights through batched draws:
// with four vertices a draw the per-job vertex counts must still follow the
// 1:3 ratio, and the normalized-service gap stay within one batch of the
// lightest job.
func TestPoolDrawWeightedFairShare(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{Batch: 4})
	p.stack(1, 1024, engine.JobParams{Weight: 1})
	p.stack(2, 1024, engine.JobParams{Weight: 3})
	counts := map[int32]int{}
	for i := 0; i < 200; i++ {
		id, ids := p.draw()
		if len(ids) != 4 {
			t.Fatalf("draw %d handed out %d vertices, want the batch of 4", i, len(ids))
		}
		counts[id] += len(ids)
	}
	if got, want := counts[2], 3*counts[1]; got < want-16 || got > want+16 {
		t.Fatalf("vertex counts %v diverge from the 1:3 weight ratio", counts)
	}
	if gap := math.Abs(p.account(1).Served - p.account(2).Served); gap > 4+1e-9 {
		t.Fatalf("normalized-service gap %v exceeds one batch of the lightest job", gap)
	}
}

// TestPoolDrawQuotaClampsBatch verifies the isolation bound at the draw
// site: a batch never exceeds the job's remaining quota room, drawn and
// leased vertices both count against it, and a commit reopens room.
func TestPoolDrawQuotaClampsBatch(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{Batch: 8})
	r := p.add(1, "nussinov", engine.JobParams{Name: "q", Quota: 3})
	if a := p.account(1); a.Ready < 8 {
		t.Fatalf("nussinov queued %d roots, want a whole diagonal", a.Ready)
	}
	_, ids := p.draw()
	if len(ids) != 3 {
		t.Fatalf("draw = %v, want a quota-clamped batch of 3", ids)
	}
	if _, _, ok := p.pool.Draw(1); ok {
		t.Fatal("a second sender drew past the quota before the first leased")
	}
	grants, spent := p.pool.Lease(1, 1, ids, p.now)
	if len(grants) != 3 || !spent {
		t.Fatalf("Lease = (%v, %v), want the three vertices granted", grants, spent)
	}
	if a := p.account(1); a.Inflight != 3 {
		t.Fatalf("Inflight = %d with three leases out, want 3", a.Inflight)
	}
	if _, _, ok := p.pool.Draw(1); ok {
		t.Fatal("drew past the quota with three leases in flight")
	}
	g := grants[0]
	r.deliver(1, g.Vertex, g.Attempt, r.compute(g.Vertex), true)
	p.pool.Ready(1, r.ready)
	r.ready = nil
	if _, ids := p.draw(); len(ids) != 1 {
		t.Fatalf("draw after one commit = %v, want the one vertex of room", ids)
	}
}

// TestPoolDeadlineEndsJobOnItsTick is the deadline rule, which two drivers
// used to state differently: a job is over at the first tick not before
// its deadline — the tick that lands exactly on it, not the one after —
// with its name, timeout and what was left in the error, and it fails
// alone: the job beside it keeps draining.
func TestPoolDeadlineEndsJobOnItsTick(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{})
	doomed := p.add(1, "edit", engine.JobParams{Name: "doomed", Timeout: 60 * time.Millisecond})
	p.add(2, "swgg", engine.JobParams{Name: "healthy"})
	id, ids := p.draw()
	if id != 1 {
		t.Fatalf("first draw came from job %d, want the earlier submission", id)
	}
	grants, _ := p.pool.Lease(1, 1, ids, p.now)
	for _, at := range []time.Duration{20, 40} {
		if ended := p.pool.Tick(p.now.Add(at*time.Millisecond), 2, 0); len(ended) != 0 {
			t.Fatalf("tick at %dms ended %+v before the 60ms deadline", at, ended)
		}
	}
	p.now = p.now.Add(60 * time.Millisecond)
	ended := p.pool.Tick(p.now, 2, 0)
	if len(ended) != 1 || ended[0].ID != 1 {
		t.Fatalf("tick on the deadline ended %+v, want job 1", ended)
	}
	for _, want := range []string{`job "doomed"`, "60ms timeout", "16 vertices remaining"} {
		if !strings.Contains(ended[0].Err.Error(), want) {
			t.Fatalf("error %q does not say %q", ended[0].Err, want)
		}
	}
	if accts := p.pool.Accounts(); len(accts) != 1 || accts[0].ID != 2 {
		t.Fatalf("running table = %+v, want job 2 alone", accts)
	}
	// The ended job's late events fall on the floor.
	g := grants[0]
	doomed.deliver(1, g.Vertex, g.Attempt, doomed.compute(g.Vertex), true)
	p.pool.Ready(1, doomed.ready)
	if grants, spent := p.pool.Lease(1, 2, doomed.ready, p.now); len(grants) != 0 || spent {
		t.Fatalf("Lease on an ended job = (%v, %v), want nothing", grants, spent)
	}
	p.drain(2)
	if ended := p.pool.Tick(p.now.Add(time.Hour), 2, 0); len(ended) != 0 {
		t.Fatalf("tick over an empty pool ended %+v", ended)
	}
}

// TestPoolHungerStealsDeepestBacklogAcrossJobs drives the hunger pass: of
// every (job, member) pair the deepest backlog gives up its newer half to
// the stack of its own job, charge refunded — and only when nothing is
// queued anywhere and the beggar is truly idle.
func TestPoolHungerStealsDeepestBacklogAcrossJobs(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{Steal: true, Batch: 4})
	p.add(1, "nussinov", engine.JobParams{Name: "shallow"})
	p.add(2, "nussinov", engine.JobParams{Name: "deep", Weight: 2})
	// Drain both stacks: job 1's roots in twos to members 1-4, job 2's four
	// to member 5 and the rest to member 6.
	for member := 1; ; member++ {
		id, ids, ok := p.pool.Draw(member)
		if !ok {
			break
		}
		if id == 1 {
			p.pool.Undraw(1, ids[2:])
			ids = ids[:2]
		}
		if grants, _ := p.pool.Lease(id, member, ids, p.now); len(grants) != len(ids) {
			t.Fatalf("Lease(job %d, member %d) granted %d of %d", id, member, len(grants), len(ids))
		}
		p.now = p.now.Add(time.Millisecond)
	}
	if n := p.jobs[2].eng.Load(2); n != 4 {
		t.Fatalf("member 2 holds %d leases of job 2, want the batch of 4 (the draws alternate)", n)
	}
	served := p.account(2).Served

	if p.pool.Hunger(2) {
		t.Fatal("a member holding work of its own was fed")
	}
	if !p.pool.Hunger(9) {
		t.Fatal("an idle member found nothing to steal from a 4-deep backlog")
	}
	if a := p.account(2); a.Ready != 2 || math.Abs(served-a.Served-1) > 1e-9 {
		t.Fatalf("after the steal job 2 has %d queued and was refunded %v, want 2 vertices and 2/weight", a.Ready, served-a.Served)
	}
	if a := p.account(1); a.Ready != 0 {
		t.Fatalf("the steal queued %d vertices on the other job's stack", a.Ready)
	}
	if st := p.jobs[2].eng.Counters().Stats(); st.Steals != 2 {
		t.Fatalf("Steals = %d, want the newer half of the batch", st.Steals)
	}
	if p.pool.Hunger(9) {
		t.Fatal("stole again while stolen work is still queued")
	}

	off := newPoolRig(t, engine.PoolConfig{Batch: 4})
	off.add(1, "nussinov", engine.JobParams{})
	_, ids := off.draw()
	off.pool.Lease(1, 1, ids, off.now)
	for off.account(1).Ready > 0 {
		_, ids := off.draw()
		off.pool.Lease(1, 2, ids, off.now)
	}
	if off.pool.Hunger(9) {
		t.Fatal("a pool without Steal stole")
	}
}

// TestPoolRevokeAcrossJobs: a dead member's vertices go back to the job
// each belongs to, and the totals are what the registry counts.
func TestPoolRevokeAcrossJobs(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{Batch: 2})
	p.add(1, "edit", engine.JobParams{})
	p.add(2, "nussinov", engine.JobParams{})
	for member := 1; member <= 2; member++ {
		for range []int{1, 2} {
			id, ids := p.draw()
			p.pool.Lease(id, member, ids, p.now)
		}
	}
	// edit has one root: member 1 holds it and two of nussinov's, member 2
	// four of nussinov's.
	before1, before2 := p.account(1), p.account(2)
	revoked, requeued := p.pool.Revoke(1)
	if revoked != 3 || requeued != 3 {
		t.Fatalf("Revoke = (%d, %d), want member 1's three leases back", revoked, requeued)
	}
	after1, after2 := p.account(1), p.account(2)
	if after1.Ready != before1.Ready+1 || after2.Ready != before2.Ready+2 {
		t.Fatalf("requeued %d and %d vertices, want 1 on edit's stack and 2 on nussinov's",
			after1.Ready-before1.Ready, after2.Ready-before2.Ready)
	}
	if math.Abs(before1.Served-after1.Served-1) > 1e-9 || math.Abs(before2.Served-after2.Served-2) > 1e-9 {
		t.Fatalf("refunds %v and %v, want 1 and 2", before1.Served-after1.Served, before2.Served-after2.Served)
	}
	if revoked, requeued := p.pool.Revoke(1); revoked != 0 || requeued != 0 {
		t.Fatalf("second Revoke = (%d, %d), want nothing", revoked, requeued)
	}
	p.pool.Revoke(2)
	p.drain(3)
}

// TestPoolBlockCyclicIdleWhileComputable is the paper's case against the
// static baseline, on the pool: "computable DAG nodes alongside idle
// threads". Under the BCW order a member draws its own columns' vertices in
// wavefront order and nothing else, whatever is queued.
func TestPoolBlockCyclicIdleWhileComputable(t *testing.T) {
	prob, proc, _ := problem(t, "edit") // a 4x4 wavefront grid
	g := dag.Build(prob.Kernel.Pattern(), dag.MatrixGeometry(prob.Size, proc))
	at := func(row, col int) int32 { return g.Geom.ID(dag.Pos{Row: row, Col: col}) }
	p := newPoolRig(t, engine.PoolConfig{Batch: 4})
	// Two members, column runs of one: member 0 owns the even columns.
	r := p.add(1, "edit", engine.JobParams{Order: sched.NewBlockCyclic(g, 2, 1)})
	if _, ids, ok := p.pool.Draw(1); ok {
		t.Fatalf("member 1 drew %v: the root is member 0's", ids)
	}
	_, ids, ok := p.pool.Draw(0)
	if !ok || len(ids) != 1 || ids[0] != at(0, 0) {
		t.Fatalf("member 0 drew (%v, %v), want the root", ids, ok)
	}
	grants, _ := p.pool.Lease(1, 0, ids, p.now)
	r.deliver(0, grants[0].Vertex, grants[0].Attempt, r.compute(grants[0].Vertex), true)
	p.pool.Ready(1, r.ready) // (0,1) and (1,0)
	r.ready = nil
	// Of the two only (1,0) is member 0's, and (2,0) behind it is fenced:
	// a batch of one under a cap of four.
	_, ids, ok = p.pool.Draw(0)
	if !ok || len(ids) != 1 || ids[0] != at(1, 0) {
		t.Fatalf("member 0 drew (%v, %v), want (1,0) alone", ids, ok)
	}
	// Member 0 is idle again, (0,1) is computable — and stays queued.
	if _, ids, ok := p.pool.Draw(0); ok || p.account(1).Ready != 1 {
		t.Fatalf("member 0 drew (%v, %v) with %d queued, want nothing of member 1's one vertex", ids, ok, p.account(1).Ready)
	}
	p.pool.Undraw(1, []int32{at(1, 0)}) // back to the head of member 0's queue
	if _, ids, ok := p.pool.Draw(1); !ok || len(ids) != 1 || ids[0] != at(0, 1) {
		t.Fatalf("member 1 drew (%v, %v), want (0,1): a requeue for member 0 is not its either", ids, ok)
	}
	p.pool.Undraw(1, []int32{at(0, 1)})
	p.drain(0, 1)
}

// TestPoolAffinityDrawsMostHeldDeps runs a whole job under the affinity
// order with the score core gives it — how many blocks of the vertex's data
// region the member already holds, here the ones it computed: every draw is
// a vertex no queued one outscores for that member, and at least once that
// is not the newest, which LIFO would have handed out.
func TestPoolAffinityDrawsMostHeldDeps(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{})
	var g *dag.Graph
	held := [2]map[int32]bool{{}, {}}
	score := func(member int, v int32) (n int) {
		for _, d := range g.Vertex(v).DataPre {
			if held[member][d] {
				n++
			}
		}
		return n
	}
	r := p.add(1, "swgg", engine.JobParams{Order: sched.NewAffinity(score)}) // row + column data regions
	g = r.eng.Graph()
	queued := append([]int32(nil), r.eng.Graph().Roots()...) // in push order
	choices := 0
	for step := 0; !r.eng.Finished(); step++ {
		member := step % 2
		_, ids, ok := p.pool.Draw(member)
		if !ok || len(ids) != 1 {
			t.Fatalf("step %d: Draw = (%v, %v) with %v queued", step, ids, ok, queued)
		}
		v := ids[0]
		for _, u := range queued {
			if score(member, u) > score(member, v) {
				t.Fatalf("step %d: member %d drew vertex %d (score %d) with vertex %d (score %d) queued",
					step, member, v, score(member, v), u, score(member, u))
			}
		}
		if newest := queued[len(queued)-1]; score(member, newest) < score(member, v) {
			choices++
		}
		queued = slices.DeleteFunc(queued, func(u int32) bool { return u == v })
		grants, _ := p.pool.Lease(1, member, ids, p.now)
		r.deliver(member, v, grants[0].Attempt, r.compute(v), true)
		held[member][v] = true
		queued = append(queued, r.ready...)
		p.pool.Ready(1, r.ready)
		r.ready = nil
	}
	if choices == 0 {
		t.Fatal("affinity never preferred a vertex over the newest: the script does not tell it from LIFO")
	}
	p.pool.Remove(1)
	r.finish()
}

// TestPoolTickOrder pins what one tick does to one job, in order: expired
// attempts are requeued with their charge refunded; stragglers are flagged
// only while nothing is queued, at most one per live member; and the
// MaxAttempts-th expiry ends the job — alone.
func TestPoolTickOrder(t *testing.T) {
	p := newPoolRig(t, engine.PoolConfig{
		Speculate: true, SpecMinSamples: 1, SpecFloor: time.Second,
		TaskTimeout: taskTimeout, MaxAttempts: 3,
	})
	r := p.add(1, "nussinov", engine.JobParams{Name: "slow"})
	p.add(2, "edit", engine.JobParams{Name: "bystander", MaxAttempts: 5})
	lease := func(member int) engine.Grant {
		t.Helper()
		for {
			id, ids := p.draw()
			grants, _ := p.pool.Lease(id, member, ids, p.now)
			if id == 1 && len(grants) == 1 {
				return grants[0]
			}
		}
	}
	// One completion in a second warms job 1's profile: threshold 2 s.
	g := lease(1)
	p.now = p.now.Add(time.Second)
	r.now = p.now
	r.deliver(1, g.Vertex, g.Attempt, r.compute(g.Vertex), true)
	p.pool.Ready(1, r.ready)
	r.ready = nil

	straggler := lease(1)
	p.now = p.now.Add(5 * time.Second)
	queued := p.account(1).Ready
	if ended := p.pool.Tick(p.now, 4, 0); len(ended) != 0 || p.account(1).Ready != queued {
		t.Fatalf("tick flagged a straggler while %d vertices were queued (now %d, ended %v)", queued, p.account(1).Ready, ended)
	}
	var others []engine.Grant
	for p.account(1).Ready > 0 {
		others = append(others, lease(2))
	}
	p.now = p.now.Add(3 * time.Second) // the others are 3 s old too, past the threshold
	p.pool.Tick(p.now, 1, 0)
	if a := p.account(1); a.Ready != 1 {
		t.Fatalf("tick with one live member flagged %d vertices, want its budget of 1", a.Ready)
	}
	if grants, spent := p.pool.Lease(1, 1, mustDraw(t, p, 1), p.now); len(grants) != 0 || !spent {
		t.Fatalf("member 1 drew the backup of its own attempt: (%v, %v), want it held and the token spent", grants, spent)
	}
	backup, _ := p.pool.Lease(1, 3, mustDraw(t, p, 1), p.now)
	if len(backup) != 1 || backup[0].Vertex != straggler.Vertex || r.eng.LiveAttempts(straggler.Vertex) != 2 {
		t.Fatalf("member 3's draw = %v, want a backup of vertex %d", backup, straggler.Vertex)
	}

	// Past every deadline: both sides of the race and the others expire,
	// and each uncovered vertex goes back on the stack once, with its charge.
	served := p.account(1).Served
	p.now = p.now.Add(2 * taskTimeout)
	if ended := p.pool.Tick(p.now, 4, 0); len(ended) != 0 {
		t.Fatalf("first expiry ended %+v", ended)
	}
	if a := p.account(1); a.Ready != 1+len(others) || math.Abs(served-a.Served-float64(1+len(others))) > 1e-9 {
		t.Fatalf("after the expiry %d queued, refund %v; want %d vertices and as much", a.Ready, served-a.Served, 1+len(others))
	}
	// The straggler's vertex has two expiries behind it; the third is job
	// 1's MaxAttempts.
	for p.account(1).Ready > 0 {
		lease(4)
	}
	p.now = p.now.Add(2 * taskTimeout)
	ended := p.pool.Tick(p.now, 4, 0)
	if len(ended) != 1 || ended[0].ID != 1 || !strings.Contains(ended[0].Err.Error(), `job "slow": vertex`) ||
		!strings.Contains(ended[0].Err.Error(), "MaxAttempts") {
		t.Fatalf("ended = %+v, want job 1 over its MaxAttempts", ended)
	}
	for member := 1; member <= 4; member++ {
		p.pool.Revoke(member) // whoever the loops above leased the bystander to
	}
	p.drain(5)
}

func mustDraw(t *testing.T, p *poolRig, want int32) []int32 {
	t.Helper()
	id, ids := p.draw()
	if id != want {
		t.Fatalf("drew from job %d, want %d", id, want)
	}
	return ids
}

// TestPoolAutoTunes: Auto arms stealing and speculation without being
// told to, the tuner's cap is the one Draw uses, every adjustment is traced
// on the pool's recorder, and the sample stays monotone when a job leaves.
func TestPoolAutoTunes(t *testing.T) {
	tr := trace.New()
	p := newPoolRig(t, engine.PoolConfig{Auto: true, Trace: tr})
	if p.pool.Tuner() == nil {
		t.Fatal("Auto pool has no tuner")
	}
	if newPoolRig(t, engine.PoolConfig{}).pool.Tuner() != nil {
		t.Fatal("static pool has a tuner")
	}
	p.add(1, "nussinov", engine.JobParams{})
	p.add(2, "nussinov", engine.JobParams{})
	tunes := func() (n int) {
		for _, ev := range tr.Events() {
			if ev.Kind == trace.EvTune {
				n++
			}
		}
		return n
	}
	// Dispatch progress between ticks grows the cap by one each time.
	p.pool.Tick(p.now, 2, 0) // baseline
	for want := 2; want <= 3; want++ {
		id, ids := p.draw()
		if len(ids) != want-1 {
			t.Fatalf("draw handed out %d vertices under a cap of %d", len(ids), want-1)
		}
		grants, _ := p.pool.Lease(id, 1, ids, p.now)
		p.jobs[id].eng.Shipped(1, len(grants), 64*len(grants))
		p.pool.Tick(p.now, 2, 0)
		if got := p.pool.Tuner().BatchCap(); got != want {
			t.Fatalf("batch cap = %d after %d ticks with progress, want %d", got, want-1, want)
		}
	}
	// A job leaves; its dispatches stay in the sample, so the next tick
	// sees no progress rather than a negative one and leaves the cap alone.
	p.pool.Remove(1)
	p.pool.Tick(p.now, 2, 0)
	if got := p.pool.Tuner().BatchCap(); got != 3 {
		t.Fatalf("batch cap = %d after a job left, want 3 still", got)
	}
	// Hunger halves it, stealing without Steal set.
	p.pool.Revoke(1)
	for {
		id, ids, ok := p.pool.Draw(1)
		if !ok {
			break
		}
		p.pool.Lease(id, 1, ids, p.now)
	}
	if !p.pool.Hunger(2) {
		t.Fatal("Auto did not arm stealing")
	}
	p.pool.Tick(p.now, 2, 1)
	if got := p.pool.Tuner().BatchCap(); got != 1 {
		t.Fatalf("batch cap = %d after a hungry tick, want 3 halved", got)
	}
	if got, want := int64(tunes()), p.pool.Tuner().Adjustments(); got != want || want != 3 {
		t.Fatalf("EvTune events = %d, adjustments = %d; want 3 and every one traced", got, want)
	}
}

// poolJobSpec is one job of the random pool schedules.
type poolJobSpec struct {
	app string
	jp  engine.JobParams
}

var poolJobs = []poolJobSpec{
	{"edit", engine.JobParams{Name: "a"}},
	{"nussinov", engine.JobParams{Name: "b", Weight: 2, Quota: 3}},
	{"swgg", engine.JobParams{Name: "c", Weight: 0.5, Priority: 1}},
	{"nussinov", engine.JobParams{Name: "d", Weight: 3, Quota: 2}},
}

// randomPoolSchedule is TestRandomSchedules one level up: four jobs of
// mixed weight, priority, quota and draw order (randomOrder) on one pool,
// the last submitted mid-run, and a single-threaded loop of seeded random
// fleet-level events — a random member's sender draws, the draw is leased
// to it (or handed back), a result is
// delivered (sometimes twice, often late), the control loop ticks past
// random deadlines, a member dies, a member goes hungry. After every step:
// leased plus drawn vertices never exceed a quota; served is exactly the
// vertices drawn and kept over the weight, so every refund matched a charge;
// a drawn vertex belongs to the job it was drawn from, with its predecessors
// committed; no vertex commits twice or runs more than two attempts. At the
// end nothing leaked and every matrix is the sequential one.
func randomPoolSchedule(t *testing.T, seed int64, results map[string]map[int32][]byte, wants map[string][][]int32) {
	rng := rand.New(rand.NewSource(seed))
	pool := engine.NewPool[int32](engine.PoolConfig{
		Batch: 1 + rng.Intn(4), TaskTimeout: taskTimeout, MaxAttempts: 1 << 30,
		Speculate: true, SpecQuantile: 0.5, SpecMultiplier: 1.01, SpecMinSamples: 1,
		Steal: true,
	})
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("pool seed %d: "+format, append([]any{seed}, args...)...)
	}
	type jobState struct {
		spec      poolJobSpec
		jp        engine.JobParams
		eng       *engine.Job[int32]
		preds     map[int32][]int32
		committed map[int32]bool
		kept      int   // vertices drawn and not handed back
		redist    int64 // Redistributions at the last look: what Tick's expiries refunded
		running   bool
	}
	type frame struct {
		job int32
		attemptRef
	}
	type draw struct {
		job    int32
		member int // whom it was drawn for: under BCW the owner
		ids    []int32
	}
	const members = 4
	now := time.Unix(0, 0)
	jobs := make(map[int32]*jobState)
	var frames []frame
	var draws []draw

	checkReady := func(js *jobState, ready []int32) {
		g := js.eng.Graph()
		for _, v := range ready {
			if v < 0 || int(v) >= len(g.Verts) || !g.Vertex(v).Exists {
				failf("job %s was handed vertex %d, which is not in its DAG", js.jp.Name, v)
			}
			for _, p := range js.preds[v] {
				if !js.committed[p] {
					failf("job %s: vertex %d ready before its predecessor %d committed", js.jp.Name, v, p)
				}
			}
		}
	}
	add := func(id int32) {
		spec := poolJobs[id-1]
		prob, proc, _ := problem(t, spec.app)
		jp := pool.Params(spec.jp)
		js := &jobState{spec: spec, committed: make(map[int32]bool), running: true}
		js.eng = engine.New(prob.Kernel.Pattern(), prob.Codec, prob.Size, proc,
			engine.Config[int32]{TaskTimeout: jp.TaskTimeout, MaxAttempts: jp.MaxAttempts})
		jp.Order = randomOrder(rng, js.eng.Graph(), members, func(format string, args ...any) {
			t.Helper()
			failf("job %s: "+format, append([]any{jp.Name}, args...)...)
		})
		js.jp = jp
		js.preds = predecessors(js.eng.Graph())
		frontier, err := js.eng.Frontier()
		if err != nil {
			failf("Frontier: %v", err)
		}
		checkReady(js, frontier)
		pool.Add(id, js.eng, jp, frontier, now)
		jobs[id] = js
	}
	// queued is every running job's stack depth; grown charges what grew
	// since before as refunds.
	queued := func() map[int32]int {
		q := make(map[int32]int)
		for _, a := range pool.Accounts() {
			q[a.ID] = a.Ready
		}
		return q
	}
	refund := func(before map[int32]int) (total int) {
		for id, n := range queued() {
			jobs[id].kept -= n - before[id]
			total += n - before[id]
		}
		return total
	}
	deliver := func(f frame, twice bool) {
		js := jobs[f.job]
		payload := results[js.spec.app][f.v]
		ready, accepted, err := js.eng.Complete(f.member, f.v, f.attempt, payload, now)
		if err != nil {
			failf("Complete(%+v): %v", f, err)
		}
		if accepted {
			if js.committed[f.v] {
				failf("job %s: vertex %d committed twice", js.jp.Name, f.v)
			}
			js.committed[f.v] = true
			checkReady(js, ready)
			pool.Ready(f.job, ready)
			if js.eng.Finished() {
				if n := js.eng.Leaked(); n != 0 {
					failf("job %s finished with %d register/lease entries leaked", js.jp.Name, n)
				}
				pool.Remove(f.job)
				js.running = false
			}
		}
		if twice {
			if _, again, _ := js.eng.Complete(f.member, f.v, f.attempt, payload, now); again {
				failf("the same frame %+v was accepted twice", f)
			}
		}
	}

	for id := int32(1); id < int32(len(poolJobs)); id++ {
		add(id)
	}
	late := int32(len(poolJobs))
	done := func() bool {
		if jobs[late] == nil {
			return false
		}
		for _, js := range jobs {
			if js.running {
				return false
			}
		}
		return true
	}
	for step := 0; !done(); step++ {
		now = now.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
		if step == 25 {
			add(late)
		}
		// Past the random phase the loop only draws, leases and delivers, so
		// every seed terminates whatever faults it drew.
		event := rng.Intn(12)
		if step > 600 {
			event = rng.Intn(7)
		}
		switch {
		case event < 3:
			member := rng.Intn(members)
			if id, ids, ok := pool.Draw(member); ok {
				js := jobs[id]
				if !js.running || len(ids) == 0 {
					failf("Draw = job %d %v (running %v)", id, ids, js.running)
				}
				checkReady(js, ids)
				js.kept += len(ids)
				draws = append(draws, draw{id, member, ids})
			}
		case event < 5 || event == 11:
			if len(draws) == 0 {
				break
			}
			i := rng.Intn(len(draws))
			d := draws[i]
			draws = append(draws[:i], draws[i+1:]...)
			js := jobs[d.job]
			if event == 11 {
				pool.Undraw(d.job, d.ids)
				if js.running {
					js.kept -= len(d.ids)
				}
				break
			}
			member := d.member
			before := queued()
			grants, spent := pool.Lease(d.job, member, d.ids, now)
			held := refund(before)
			if !js.running && (len(grants) > 0 || spent) {
				failf("Lease on finished job %s = (%v, %v)", js.jp.Name, grants, spent)
			}
			if spent != (len(grants) > 0 || held > 0) {
				failf("Lease spent = %v with %d grants and %d held", spent, len(grants), held)
			}
			for _, g := range grants {
				if n := js.eng.LiveAttempts(g.Vertex); n > 2 {
					failf("step %d: job %s vertex %d has %d live attempts", step, js.jp.Name, g.Vertex, n)
				}
				frames = append(frames, frame{d.job, attemptRef{member, g.Vertex, g.Attempt}})
			}
		case event < 7:
			if len(frames) > 0 {
				i := rng.Intn(len(frames))
				f := frames[i]
				frames = append(frames[:i], frames[i+1:]...)
				deliver(f, event == 6)
			}
		case event == 7:
			if rng.Intn(2) == 0 {
				now = now.Add(time.Duration(rng.Intn(int(2 * taskTimeout))))
			}
			if ended := pool.Tick(now, members, 0); len(ended) != 0 {
				failf("Tick ended %+v", ended)
			}
			// Expiries are refunded, flags are not: the ledger tells them apart.
			for _, js := range jobs {
				if r := js.eng.Counters().Redistributions.Load(); js.running {
					js.kept -= int(r - js.redist)
					js.redist = r
				}
			}
		case event == 8:
			before := queued()
			_, requeued := pool.Revoke(rng.Intn(members))
			if got := refund(before); got != requeued {
				failf("Revoke says %d requeued, the stacks grew by %d", requeued, got)
			}
		default:
			before := queued()
			stole := pool.Hunger(rng.Intn(members))
			if got := refund(before); stole != (got > 0) {
				failf("Hunger = %v, the stacks grew by %d", stole, got)
			}
		}
		for _, a := range pool.Accounts() {
			js := jobs[a.ID]
			if !js.running {
				failf("step %d: finished job %s is still in the pool", step, js.jp.Name)
			}
			if js.jp.Quota > 0 && a.Inflight > js.jp.Quota {
				failf("step %d: job %s has %d leased or drawn over its quota of %d", step, js.jp.Name, a.Inflight, js.jp.Quota)
			}
			if want := float64(js.kept) / js.jp.Weight; math.Abs(a.Served-want) > 1e-6 {
				failf("step %d: job %s served %v, but keeps %d vertices at weight %v (%v)", step, js.jp.Name, a.Served, js.kept, js.jp.Weight, want)
			}
		}
		if step > 100000 {
			failf("no end in sight: %d draws and %d frames outstanding", len(draws), len(frames))
		}
	}
	for _, js := range jobs {
		if len(js.committed) != js.eng.Graph().N {
			failf("job %s: %d of %d vertices committed", js.jp.Name, len(js.committed), js.eng.Graph().N)
		}
		if i, j, differ := firstDiff(js.eng.Store().Assemble(), wants[js.spec.app]); differ {
			failf("job %s: cell (%d,%d) differs from the sequential matrix", js.jp.Name, i, j)
		}
	}
}
