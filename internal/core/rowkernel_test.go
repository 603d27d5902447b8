package core_test

import (
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// flakyRows is edit distance whose Row panics the first time it is asked
// for each of the planted segments, or every time when broken.
type flakyRows struct {
	*dp.EditDistance
	mu      sync.Mutex
	planted map[[2]int]bool
	broken  bool
}

func (k *flakyRows) Row(v *matrix.View[int32], i, j0 int, out []int32) {
	k.mu.Lock()
	boom := k.planted[[2]int{i, j0}] || k.broken
	delete(k.planted, [2]int{i, j0})
	k.mu.Unlock()
	if boom {
		panic("flaky row")
	}
	k.EditDistance.Row(v, i, j0, out)
}

// A panic inside a kernel's Row is a thread-level fault like any other: the
// compute goroutine recovers, the restart is counted, the sub-sub-task is
// requeued and the matrix comes out right.
func TestPanickingRowRecovered(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(40, 51), dp.RandomDNA(40, 52))
	k := &flakyRows{EditDistance: e, planted: map[[2]int]bool{{0, 0}: true, {20, 22}: true, {39, 38}: true}}
	p := e.Problem()
	p.Kernel = k
	res, err := core.Run(p, faultConfig())
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "editdist-flaky-row", res.Matrix(), e.Sequential())
	if len(k.planted) != 0 || res.Stats.WorkerRestarts != 3 {
		t.Fatalf("planted panics left %v, worker restarts %d: want none left and 3 restarts", k.planted, res.Stats.WorkerRestarts)
	}
}

// A Row that panics every time is a kernel bug, not a fault: at MaxAttempts
// the panic is re-raised, naming the sub-task, and takes the process down —
// so the run is made in a child process.
func TestBrokenRowReRaisedAtMaxAttempts(t *testing.T) {
	const env = "EASYHPS_TEST_BROKEN_ROW"
	if os.Getenv(env) != "" {
		e := dp.NewEditDistance(dp.RandomDNA(8, 54), dp.RandomDNA(8, 55))
		p, cfg := e.Problem(), faultConfig()
		p.Kernel, cfg.MaxAttempts = &flakyRows{EditDistance: e, broken: true}, 2
		_, err := core.Run(p, cfg)
		t.Fatalf("the run returned (%v) instead of re-raising the panic", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBrokenRowReRaisedAtMaxAttempts$")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	if want := "panicked 2 times (MaxAttempts): flaky row"; err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("child run: err %v, want a crash whose output contains %q; got:\n%s", err, want, out)
	}
}

// hideRows is a kernel without whatever optional methods it has.
type hideRows struct{ core.Kernel[int32] }

// An emulated run weighs a sub-block as the per-cell loop did: the sum of
// CellCost over its cells in cell order, one a cell without a CostModel,
// through Row or through the Cell adapter — and nothing when not emulating.
func TestSubBlockFillUnits(t *testing.T) {
	a := dp.RandomDNA(12, 53)
	s, e := dp.NewSWGG(a, a), dp.NewEditDistance(a, a)
	r := dag.Rect{Rows: 5, Cols: 7}
	var swgg float64
	for i := 0; i < r.Rows; i++ { // rowcolumn's cell order is row-major
		for j := 0; j < r.Cols; j++ {
			swgg += s.CellCost(i, j)
		}
	}
	for _, c := range []struct {
		name    string
		k       core.Kernel[int32]
		emulate bool
		want    float64
	}{
		{"cost model", s, true, swgg},
		{"row kernel, uniform", e, true, 35},
		{"cell adapter, uniform", hideRows{s}, true, 35},
		{"not emulated", s, false, 0},
	} {
		v := matrix.NewView(matrix.NewBlock[int32](r), nil, c.k.Pattern(), s.Size(), c.k.Boundary)
		if got := core.SubBlockFill(c.k, c.emulate)(v); got != c.want {
			t.Errorf("%s: fill returned %v units, want %v", c.name, got, c.want)
		}
	}
}
