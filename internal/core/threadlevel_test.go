package core_test

import (
	"context"
	"reflect"
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

// run runs the task through r, checks the block it returns and returns its
// encoding.
func (task vertexTask) run(t *testing.T, r *core.TaskRunner[int32]) []byte {
	t.Helper()
	out, err := r.Run(task.v, task.payload)
	if err != nil {
		t.Fatalf("vertex %d: %v", task.v, err)
	}
	got, err := matrix.DecodeBlocks(matrix.BinaryCodec[int32]{}, out)
	if err != nil || len(got) != 1 || !slices.Equal(got[0].Cells, task.want) {
		t.Fatalf("vertex %d: computed block differs from the sequential one (%v)", task.v, err)
	}
	return out
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

// A warmed-up Run over a 4×4 sub-grid reuses its slave DAG, queue, views
// and strips: what it allocates is the task's decoded
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

// oneBlockRunner runs a 16×16 edit distance with kernel k as one block of
// two sub-blocks, west and east, at two threads.
func oneBlockRunner(t *testing.T, e *dp.EditDistance, k core.Kernel[int32], cfg core.Config) (*core.TaskRunner[int32], vertexTask) {
	t.Helper()
	p := e.Problem()
	p.Kernel = k
	cfg.Threads, cfg.ProcPartition, cfg.ThreadPartition = 2, dag.Square(16), dag.Size{Rows: 16, Cols: 8}
	runner, err := core.NewTaskRunner(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runner, jobTasks(t, p, e.Sequential(), dag.Square(16))[0]
}

// slowFirstRow is edit distance whose first row takes 50 ms every call.
type slowFirstRow struct{ *dp.EditDistance }

func (k slowFirstRow) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	if i == 0 && j0 == 0 {
		time.Sleep(50 * time.Millisecond)
	}
	k.EditDistance.Row(v, i, j0, out)
}

// A slow sub-block is no failure, even at MaxAttempts 1: nothing times a
// compute thread, so the one attempt of each sub-block completes the block.
func TestSlowSubBlockIsNoFailure(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(16, 93), dp.RandomDNA(16, 94))
	runner, task := oneBlockRunner(t, e, slowFirstRow{e}, core.Config{MaxAttempts: 1})
	task.run(t, runner)
	if n := runner.SubTasks(); n != 2 {
		t.Fatalf("%d sub-block attempts completed, want 2: one each, no backup", n)
	}
}

// outRecorder is a kernel whose Row records where each out slice it is
// handed lies in memory: the address of its first cell and one past its
// last.
type outRecorder struct {
	core.Kernel[int32]
	mu   sync.Mutex
	outs [][2]uintptr
}

func (k *outRecorder) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	p := reflect.ValueOf(out).Pointer()
	k.mu.Lock()
	k.outs = append(k.outs, [2]uintptr{p, p + uintptr(4*len(out))}) // four bytes a cell
	k.mu.Unlock()
	k.Kernel.Row(v, i, j0, out)
}

// inPlace runs task through r and fails unless every out slice k recorded
// meanwhile lies inside the payload Run returns: the result block, which
// is its own payload (matrix.NewPayloadBlock), written where it ships.
func (k *outRecorder) inPlace(t *testing.T, r *core.TaskRunner[int32], task vertexTask) {
	t.Helper()
	k.outs = k.outs[:0]
	payload := task.run(t, r)
	lo := reflect.ValueOf(payload).Pointer()
	hi := lo + uintptr(len(payload))
	for _, o := range k.outs {
		if o[0] < lo || o[1] > hi {
			t.Fatalf("vertex %d: a Row wrote cells [%#x, %#x) outside the result block [%#x, %#x)", task.v, o[0], o[1], lo, hi)
		}
	}
	if len(k.outs) == 0 {
		t.Fatalf("vertex %d: no Row ran", task.v)
	}
}

// Every compute thread writes in place: at two and four threads, over a
// thread partition that splits each block's rows and columns, every out
// slice a Row is handed — thread 0's and the helpers' — lies inside the
// result block Run returns, and the blocks are bit-identical.
func TestHelpersWriteInPlace(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(40, 95), dp.RandomDNA(40, 96))
	tasks := jobTasks(t, e.Problem(), e.Sequential(), dag.Square(16))
	for _, threads := range []int{2, 4} {
		k := &outRecorder{Kernel: e}
		p := e.Problem()
		p.Kernel = k
		runner, err := core.NewTaskRunner(p, core.Config{Threads: threads, ProcPartition: dag.Square(16), ThreadPartition: dag.Size{Rows: 5, Cols: 6}})
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			k.inPlace(t, runner, task)
		}
	}
}

// At two threads a panicking sub-block is retried in place: one before its
// first row (FaultPlan.PanicSubTask), in the root block and in the last
// sub-block of another, and one halfway down a sub-block whose rows above
// were already written into the result block (a planted Row panic). Every
// block comes out bit-identical, each retry's Rows writing into the result
// block, with one restart per panic.
func TestPanickingSubBlockRetriedInPlace(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(40, 97), dp.RandomDNA(40, 98))
	flaky := &flakyRows{EditDistance: e, planted: map[[2]int]bool{{19, 24}: true}} // block (1,1), sub-block (0,1), its row 3
	k := &outRecorder{Kernel: flaky}
	p := e.Problem()
	p.Kernel = k
	runner, err := core.NewTaskRunner(p, core.Config{
		Threads: 2, ProcPartition: dag.Square(16), ThreadPartition: dag.Square(8),
		Faults: core.FaultPlan{PanicSubTask: map[core.SubTaskID]bool{{Proc: 0, Sub: 0}: true, {Proc: 1, Sub: 3}: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range jobTasks(t, p, e.Sequential(), dag.Square(16)) {
		k.inPlace(t, runner, task)
	}
	if len(flaky.planted) != 0 || runner.Restarts() != 3 {
		t.Fatalf("planted panics left %v, restarts %d: want none left and 3 restarts", flaky.planted, runner.Restarts())
	}
}
