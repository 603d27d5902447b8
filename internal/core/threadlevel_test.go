package core_test

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// countingRows is edit distance whose Row records the goroutine count it
// sees: the first sample and the largest.
type countingRows struct {
	*dp.EditDistance
	first, most atomic.Int64
}

func (k *countingRows) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	n := int64(runtime.NumGoroutine())
	k.first.CompareAndSwap(0, n)
	for m := k.most.Load(); n > m && !k.most.CompareAndSwap(m, n); m = k.most.Load() {
	}
	k.EditDistance.Row(v, i, j0, out)
}

// vertexTask is one processor-level task of a job, cut from the sequential
// matrix: its whole dependency blocks, encoded, and the block it must
// compute.
type vertexTask struct {
	v       int32
	payload []byte
	want    []int32
}

// jobTasks returns every task of p partitioned into proc-sized blocks, cut
// from seq, its sequential matrix, in row-major order; each carries what it
// reads, so any order runs.
func jobTasks(t *testing.T, p core.Problem[int32], seq [][]int32, proc dag.Size) []vertexTask {
	t.Helper()
	geom := dag.MatrixGeometry(p.Size, proc)
	graph := dag.Build(p.Kernel.Pattern(), geom)
	block := func(id int32) *matrix.Block[int32] {
		r := geom.Rect(geom.PosOf(id))
		b := matrix.NewBlock[int32](r)
		for i := 0; i < r.Rows; i++ {
			copy(b.Cells[i*r.Cols:(i+1)*r.Cols], seq[r.Row0+i][r.Col0:])
		}
		return b
	}
	var tasks []vertexTask
	for v, vert := range graph.Verts {
		if !vert.Exists {
			continue
		}
		var deps []*matrix.Block[int32]
		for _, d := range vert.DataPre {
			deps = append(deps, block(d))
		}
		payload, err := matrix.EncodeBlocks(p.Codec, deps)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, vertexTask{int32(v), payload, block(int32(v)).Cells})
	}
	return tasks
}

// run runs the task through r and checks the block it returns.
func (task vertexTask) run(t *testing.T, r *core.TaskRunner[int32]) {
	t.Helper()
	out, err := r.Run(task.v, task.payload)
	if err != nil {
		t.Fatalf("vertex %d: %v", task.v, err)
	}
	got, err := matrix.DecodeBlocks(matrix.BinaryCodec[int32]{}, out)
	if err != nil || len(got) != 1 || !slices.Equal(got[0].Cells, task.want) {
		t.Fatalf("vertex %d: computed block differs from the sequential one (%v)", task.v, err)
	}
}

// The goroutine that calls Run is compute thread 0 and Threads-1 helpers
// join it, no more: one thread starts no goroutine, three start at most two.
// (A goroutine an earlier test left behind may exit meanwhile, so the count
// a Row sees is bounded above, not pinned.)
func TestRunStartsThreadsMinusOneGoroutines(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(64, 71), dp.RandomDNA(64, 72))
	tasks := jobTasks(t, e.Problem(), e.Sequential(), dag.Square(16))
	for _, threads := range []int{1, 3} {
		k := &countingRows{EditDistance: e}
		p := e.Problem()
		p.Kernel = k
		runner, err := core.NewTaskRunner(p, core.Config{Threads: threads, ProcPartition: dag.Square(16), ThreadPartition: dag.Square(4)})
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			before := int64(runtime.NumGoroutine())
			k.most.Store(0)
			task.run(t, runner)
			if most := k.most.Load(); most > before+int64(threads-1) {
				t.Fatalf("Threads %d: vertex %d ran with %d goroutines, %d before Run", threads, task.v, most, before)
			}
		}
	}
}

// A warmed-up Run over a 4×4 sub-grid reuses its slave DAG, queue, views,
// scratch blocks and strips: what it allocates is the task's decoded
// inputs, the result block that is its own payload, and at two threads the
// helper — also for a Nussinov task whose bands are joined into strips.
func TestRunAllocatesPerTaskNotPerSubBlock(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(64, 73), dp.RandomDNA(64, 74))
	nu := dp.NewNussinov(dp.RandomRNA(64, 73))
	for _, job := range []struct {
		p    core.Problem[int32]
		task vertexTask
	}{
		{e.Problem(), jobTasks(t, e.Problem(), e.Sequential(), dag.Square(16))[5]}, // (1,1): three dependencies
		// (0,3): a row band and a column band of three blocks each.
		{nu.Problem(), jobTasks(t, nu.Problem(), nu.Sequential(), dag.Square(16))[3]},
	} {
		for _, c := range []struct{ threads, bound int }{{1, 8}, {2, 10}} {
			runner, err := core.NewTaskRunner(job.p, core.Config{Threads: c.threads, ProcPartition: dag.Square(16), ThreadPartition: dag.Square(4)})
			if err != nil {
				t.Fatal(err)
			}
			job.task.run(t, runner)
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := runner.Run(job.task.v, job.task.payload); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > float64(c.bound) {
				t.Errorf("%s Threads %d: a warm Run allocates %.1f times, want at most %d", job.p.Name, c.threads, allocs, c.bound)
			}
		}
	}
}

// A helper still stalled in a sub-block when its Run ends — the watch
// re-pushed the sub-block and thread 0 finished the DAG without it — never
// shares the state the next Run computes in: every vertex comes out
// bit-identical under -race while stragglers of earlier vertices wake into
// theirs. Thread 0, the caller, draws the root sub-block first and stalls
// in it briefly, so the helper runs on alone and draws the last one, which
// stalls it for longer than the rest of the Run takes. Under the wavefront
// it wakes to read the shipped blocks; under Nussinov's Triangular pattern,
// in a block two or more right of the diagonal, it wakes to read the
// strips its level joined a row band and a column band of several blocks
// into, which the next Run's level must not rewrite.
func TestStragglerNeverSharesReusedState(t *testing.T) {
	const stall = 100 * time.Millisecond
	proc, thread := dag.Square(16), dag.Square(4)
	e := dp.NewEditDistance(dp.RandomDNA(64, 75), dp.RandomDNA(64, 76))
	nu := dp.NewNussinov(dp.RandomRNA(80, 75))
	for _, c := range []struct {
		p      core.Problem[int32]
		seq    [][]int32
		counts func(dag.Pos) bool // the tasks whose stragglers count
	}{
		{e.Problem(), e.Sequential(), func(dag.Pos) bool { return true }},
		{nu.Problem(), nu.Sequential(), func(p dag.Pos) bool { return p.Col-p.Row >= 2 }},
	} {
		tasks := jobTasks(t, c.p, c.seq, proc)
		geom := dag.MatrixGeometry(c.p.Size, proc)
		plan := core.FaultPlan{StallSubTask: make(map[core.SubTaskID]time.Duration)}
		for _, task := range tasks {
			subs := dag.Build(c.p.Kernel.Pattern(), dag.NewGeometry(geom.Rect(geom.PosOf(task.v)), thread))
			for sub, v := range subs.Verts {
				switch id := (core.SubTaskID{Proc: task.v, Sub: int32(sub)}); {
				case !v.Exists:
				case v.PreCnt == 0:
					plan.StallSubTask[id] = stall / 5
				case len(v.Post) == 0:
					plan.StallSubTask[id] = stall
				}
			}
		}
		runner, err := core.NewTaskRunner(c.p, core.Config{
			Threads: 2, ProcPartition: proc, ThreadPartition: thread,
			SubTaskTimeout: 5 * time.Millisecond, CheckInterval: time.Millisecond, Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		stragglers, counted := 0, 0
		for _, task := range tasks {
			start := time.Now()
			task.run(t, runner)
			// Whoever drew the last sub-block stalled in it. A Run that is
			// back before that stall is over did not draw it: its helper
			// did, and is still asleep in the level the Run left behind.
			if time.Since(start) < stall/2 && !runner.KeepsLevel() {
				if stragglers++; c.counts(geom.PosOf(task.v)) {
					counted++
				}
			}
		}
		if counted == 0 {
			t.Fatalf("%s: no Run left a stalled helper behind where it counts (%d elsewhere)", c.p.Name, stragglers)
		}
		t.Logf("%s: %d of %d Runs left a stalled helper behind, %d where it counts", c.p.Name, stragglers, len(tasks), counted)
	}
}

// At one thread a worker's goroutine count is constant over a whole run:
// the thread level starts nothing per vertex. No Row, on either slave, sees
// more goroutines than the first one did.
func TestGoroutinesConstantOverRun(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(96, 77), dp.RandomDNA(96, 78))
	k := &countingRows{EditDistance: e}
	p := e.Problem()
	p.Kernel = k
	res, err := core.RunContext(context.Background(), p, core.Config{Slaves: 2, Threads: 1, ProcPartition: dag.Square(12), ThreadPartition: dag.Square(3)})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-constant-goroutines", res.Matrix(), e.Sequential())
	if first, most := k.first.Load(), k.most.Load(); most != first {
		t.Fatalf("the first Row saw %d goroutines, a later one %d", first, most)
	}
}

// chainSum is a kernel of the library's Chain pattern, which no kernel of
// internal/dp follows: cell (0, j) is the running sum of 1 + j%5.
type chainSum struct{ n int }

func (c chainSum) Pattern() dag.Pattern    { return dag.Chain{} }
func (c chainSum) Boundary(i, j int) int32 { return 0 }
func (c chainSum) Cell(v *matrix.View[int32], i, j int) int32 {
	return v.Get(i, j-1) + int32(1+j%5)
}

func (c chainSum) Sequential() [][]int32 {
	row, sum := make([]int32, c.n), int32(0)
	for j := range row {
		sum += int32(1 + j%5)
		row[j] = sum
	}
	return [][]int32{row}
}

// At one thread nobody shares a block, so the block is its own thread
// partition: every Run counts one sub-task and computes the block bit-
// identical to the sequential one — for every pattern of the library, at
// blocks the matrix edge clips and a thread partition that divides
// nothing. The same tasks at two threads keep their sub-grids, one
// sub-task a sub-block.
func TestOneThreadRunsOneSubTaskPerBlock(t *testing.T) {
	proc, thread := dag.Square(7), dag.Square(3)
	e := dp.NewEditDistance(dp.RandomDNA(40, 81), dp.RandomDNA(33, 82))
	s := dp.NewSWGG(dp.RandomDNA(30, 83), dp.RandomDNA(26, 84))
	nu := dp.NewNussinov(dp.RandomRNA(38, 85))
	d := dp.NewDominance43(19, 86)
	k := dp.NewKnapsack(17, 45, 87)
	c := chainSum{40}
	for _, job := range []struct {
		p   core.Problem[int32]
		seq [][]int32
	}{
		{e.Problem(), e.Sequential()},
		{s.Problem(), s.Sequential()},
		{nu.Problem(), nu.Sequential()},
		{d.Problem(), d.Sequential()},
		{k.Problem(), k.Sequential()},
		{core.Problem[int32]{Name: "chain", Size: dag.Size{Rows: 1, Cols: c.n}, Kernel: core.Cells[int32](c), Codec: matrix.BinaryCodec[int32]{}}, c.Sequential()},
	} {
		tasks := jobTasks(t, job.p, job.seq, proc)
		geom := dag.MatrixGeometry(job.p.Size, proc)
		for _, threads := range []int{1, 2} {
			runner, err := core.NewTaskRunner(job.p, core.Config{Threads: threads, ProcPartition: proc, ThreadPartition: thread})
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range tasks {
				before := runner.SubTasks()
				task.run(t, runner)
				want := int64(1)
				if threads > 1 {
					want = int64(dag.Build(job.p.Kernel.Pattern(), dag.NewGeometry(geom.Rect(geom.PosOf(task.v)), thread)).N)
				}
				if got := runner.SubTasks() - before; got != want {
					t.Fatalf("%s Threads %d: vertex %d counted %d sub-tasks, want %d", job.p.Name, threads, task.v, got, want)
				}
			}
		}
	}
}

// scriptedRows is edit distance whose west sub-block's first row, (0, 0),
// runs a script per call: call k runs script[k-1] in place of the real Row,
// which it may call (compute), and later calls run plain. east closes when
// the east sub-block's first row, (0, 8), first runs: west was accepted.
type scriptedRows struct {
	*dp.EditDistance
	mu     sync.Mutex
	calls  int
	script []func(compute func(), out []int32)
	left   sync.WaitGroup // the scripted calls not returned yet
	east   chan struct{}
	once   sync.Once
}

func newScriptedRows(e *dp.EditDistance, script ...func(compute func(), out []int32)) *scriptedRows {
	k := &scriptedRows{EditDistance: e, script: script, east: make(chan struct{})}
	k.left.Add(len(script))
	return k
}

func (k *scriptedRows) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	compute := func() { k.EditDistance.Row(v, i, j0, out) }
	if i == 0 && j0 == 8 {
		k.once.Do(func() { close(k.east) })
	}
	k.mu.Lock()
	if i == 0 && j0 == 0 {
		k.calls++
	}
	n := k.calls
	k.mu.Unlock()
	if i != 0 || j0 != 0 || n > len(k.script) {
		compute()
		return
	}
	defer k.left.Done()
	k.script[n-1](compute, out)
}

// waitOr waits for ch, failing the test after a generous bound instead of
// hanging it.
func waitOr(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Errorf("timed out waiting for %s", what)
	}
}

// oneBlockRunner runs a 16×16 edit distance with kernel k as one block of
// two sub-blocks, west and east, at two threads and a SubTaskTimeout of
// 5 ms.
func oneBlockRunner(t *testing.T, e *dp.EditDistance, k core.Kernel[int32], cfg core.Config) (*core.TaskRunner[int32], vertexTask) {
	t.Helper()
	p := e.Problem()
	p.Kernel = k
	cfg.Threads, cfg.ProcPartition, cfg.ThreadPartition = 2, dag.Square(16), dag.Size{Rows: 16, Cols: 8}
	cfg.SubTaskTimeout, cfg.CheckInterval = 5*time.Millisecond, time.Millisecond
	runner, err := core.NewTaskRunner(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runner, jobTasks(t, p, e.Sequential(), dag.Square(16))[0]
}

// An overdue sub-block stays live beside the backup the watch queues for
// it, and the first of the two to deliver is accepted, the other refused
// by its stamp. The west sub-block's first attempt holds its first row
// until the backup has started, then delivers; the backup holds on until
// the east sub-block runs — so west was accepted — and then delivers a
// wrong row, which must not reach the block.
func TestOverdueSubBlockRacesItsBackup(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(16, 91), dp.RandomDNA(16, 92))
	backupStarted := make(chan struct{})
	var k *scriptedRows
	k = newScriptedRows(e,
		func(compute func(), _ []int32) {
			waitOr(t, backupStarted, "the backup")
			compute()
		},
		func(compute func(), out []int32) {
			close(backupStarted)
			waitOr(t, k.east, "the east sub-block")
			compute()
			out[0]++
		})
	runner, task := oneBlockRunner(t, e, k, core.Config{MaxAttempts: 2})
	task.run(t, runner)
	k.left.Wait() // the backup may be a straggler past the Run
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.calls != 2 { // a third: the overdue attempt was superseded, not raced
		t.Fatalf("%d attempts of the west sub-block ran, want 2: the overdue one and its backup", k.calls)
	}
}

// slowFirstRow is edit distance whose first row takes 50 ms every call.
type slowFirstRow struct{ *dp.EditDistance }

func (k slowFirstRow) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	if i == 0 && j0 == 0 {
		time.Sleep(50 * time.Millisecond)
	}
	k.EditDistance.Row(v, i, j0, out)
}

// A sub-block slower than SubTaskTimeout is no failure, at any MaxAttempts:
// every attempt of it runs overdue, and the first to deliver completes the
// block. Overdue, it cost the runner its level (a straggler may hold it).
func TestSlowSubBlockIsNoFailure(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(16, 93), dp.RandomDNA(16, 94))
	runner, task := oneBlockRunner(t, e, slowFirstRow{e}, core.Config{MaxAttempts: 1})
	task.run(t, runner)
	if runner.KeepsLevel() {
		t.Fatal("the runner kept its level: no attempt ran overdue")
	}
}
