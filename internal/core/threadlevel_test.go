package core_test

import (
	"context"
	"runtime"
	"slices"
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

// editTasks returns every task of e partitioned into proc-sized blocks, in
// row-major order — a topological order of the wavefront.
func editTasks(t *testing.T, e *dp.EditDistance, proc dag.Size) []vertexTask {
	t.Helper()
	p, seq := e.Problem(), e.Sequential()
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
	for v := range graph.Verts {
		var deps []*matrix.Block[int32]
		for _, d := range graph.Verts[v].DataPre {
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
	tasks := editTasks(t, e, dag.Square(16))
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

// A warmed-up Run over a 4×4 sub-grid reuses its slave DAG, queue, views
// and scratch blocks: what it allocates is the task's decoded inputs, the
// result block that is its own payload, and at two threads the helper.
func TestRunAllocatesPerTaskNotPerSubBlock(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(64, 73), dp.RandomDNA(64, 74))
	task := editTasks(t, e, dag.Square(16))[5] // (1,1): three dependencies
	for _, c := range []struct{ threads, bound int }{{1, 8}, {2, 10}} {
		runner, err := core.NewTaskRunner(e.Problem(), core.Config{Threads: c.threads, ProcPartition: dag.Square(16), ThreadPartition: dag.Square(4)})
		if err != nil {
			t.Fatal(err)
		}
		task.run(t, runner)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := runner.Run(task.v, task.payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(c.bound) {
			t.Errorf("Threads %d: a warm Run allocates %.1f times, want at most %d", c.threads, allocs, c.bound)
		}
	}
}

// A helper still stalled in a sub-block when its Run ends — the watch
// re-pushed the sub-block and thread 0 finished the DAG without it — never
// shares the state the next Run computes in: every vertex comes out
// bit-identical under -race while stragglers of earlier vertices wake into
// theirs. Thread 0, the caller, draws the root sub-block first and stalls
// in it briefly, so the helper runs on alone and draws the last one, which
// stalls it for longer than the rest of the Run takes.
func TestStragglerNeverSharesReusedState(t *testing.T) {
	const stall = 100 * time.Millisecond
	e := dp.NewEditDistance(dp.RandomDNA(64, 75), dp.RandomDNA(64, 76))
	tasks := editTasks(t, e, dag.Square(16))
	plan := core.FaultPlan{StallSubTask: make(map[core.SubTaskID]time.Duration)}
	for _, task := range tasks {
		plan.StallSubTask[core.SubTaskID{Proc: task.v, Sub: 0}] = stall / 5
		plan.StallSubTask[core.SubTaskID{Proc: task.v, Sub: 15}] = stall
	}
	runner, err := core.NewTaskRunner(e.Problem(), core.Config{
		Threads: 2, ProcPartition: dag.Square(16), ThreadPartition: dag.Square(4),
		SubTaskTimeout: 5 * time.Millisecond, CheckInterval: time.Millisecond, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	stragglers := 0
	for _, task := range tasks {
		start := time.Now()
		task.run(t, runner)
		// Whoever drew the last sub-block stalled in it. A Run that is back
		// before that stall is over did not draw it: its helper did, and is
		// still asleep in the level the Run left behind.
		if time.Since(start) < stall/2 && !runner.KeepsLevel() {
			stragglers++
		}
	}
	if stragglers == 0 {
		t.Fatal("no Run left a stalled helper behind")
	}
	t.Logf("%d of %d Runs left a stalled helper behind", stragglers, len(tasks))
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
