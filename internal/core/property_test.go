package core_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/testseed"
)

// Property: for ANY geometry (matrix size, partition sizes, slave and
// thread counts), the parallel edit-distance matrix equals the sequential
// one. This is the runtime's central contract.
func TestRunMatchesSequentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64, n, pr, pc, tr, tc, slaves, threads uint8) bool {
		size := int(n%40) + 8
		a := dp.RandomDNA(size, seed)
		b := dp.RandomDNA(size, seed+1)
		e := dp.NewEditDistance(a, b)
		cfg := core.Config{
			Slaves:          int(slaves%4) + 1,
			Threads:         int(threads%4) + 1,
			ProcPartition:   dag.Size{Rows: int(pr%16) + 1, Cols: int(pc%16) + 1},
			ThreadPartition: dag.Size{Rows: int(tr%8) + 1, Cols: int(tc%8) + 1},
			RunTimeout:      2 * time.Minute,
		}
		res, err := core.RunContext(context.Background(), e.Problem(), cfg)
		if err != nil {
			t.Logf("size=%d cfg=%+v: %v", size, cfg, err)
			return false
		}
		got := res.Matrix()
		want := e.Sequential()
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Logf("size=%d cfg=%+v: cell (%d,%d) %d != %d", size, cfg, i, j, got[i][j], want[i][j])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		// Seeded (instead of quick's wall-clock default) so a failing
		// geometry replays with the seed the failure log prints.
		Rand: rand.New(rand.NewSource(testseed.Seed(t, 1))),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The same property for the triangular pattern, whose block existence and
// data regions are the most intricate.
func TestNussinovMatchesSequentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64, n, pr, pc, tb uint8) bool {
		size := int(n%30) + 8
		nu := dp.NewNussinov(dp.RandomRNA(size, seed))
		cfg := core.Config{
			Slaves:          2,
			Threads:         2,
			ProcPartition:   dag.Size{Rows: int(pr%10) + 1, Cols: int(pc%10) + 1},
			ThreadPartition: dag.Size{Rows: int(tb%5) + 1, Cols: int(tb%4) + 1},
			RunTimeout:      2 * time.Minute,
		}
		res, err := core.RunContext(context.Background(), nu.Problem(), cfg)
		if err != nil {
			return false
		}
		got := res.Matrix()
		want := nu.Sequential()
		for i := range want {
			for j := i; j < len(want[i]); j++ {
				if got[i][j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 20,
		Rand:     rand.New(rand.NewSource(testseed.Seed(t, 2))),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Independent runs must not share state: several clusters in one process,
// concurrently.
func TestConcurrentIndependentRuns(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			a := dp.RandomDNA(40, int64(100+k))
			b := dp.RandomDNA(40, int64(200+k))
			e := dp.NewEditDistance(a, b)
			cfg := core.Config{
				Slaves: 2, Threads: 2,
				ProcPartition:   dag.Square(10),
				ThreadPartition: dag.Square(4),
				RunTimeout:      2 * time.Minute,
			}
			res, err := core.RunContext(context.Background(), e.Problem(), cfg)
			if err != nil {
				errs <- err
				return
			}
			want := e.Sequential()
			got := res.Matrix()
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						errs <- err
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Determinism: the same problem and config produce the same matrix, no
// matter how scheduling interleaves.
func TestRunDeterministicAcrossSchedules(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(40, 300))
	cfg := core.Config{
		Slaves: 3, Threads: 3,
		ProcPartition:   dag.Square(7),
		ThreadPartition: dag.Square(3),
		RunTimeout:      time.Minute,
	}
	var first [][]int32
	for round := 0; round < 3; round++ {
		res, err := core.RunContext(context.Background(), nu.Problem(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Matrix()
		if first == nil {
			first = m
			continue
		}
		for i := range first {
			for j := range first[i] {
				if m[i][j] != first[i][j] {
					t.Fatalf("round %d: cell (%d,%d) differs", round, i, j)
				}
			}
		}
	}
}

// Dispatch accounting: without faults, dispatches == tasks == number of
// existing vertices, and no redistribution or stale results occur.
func TestStatsAccountingCleanRun(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(48, 301), dp.RandomDNA(48, 302))
	cfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(8), // 6x6 grid
		ThreadPartition: dag.Square(4), // 2x2 sub-grid per task
		RunTimeout:      time.Minute,
	}
	res, err := core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Tasks != 36 || s.Dispatches != 36 {
		t.Fatalf("tasks/dispatches = %d/%d, want 36/36", s.Tasks, s.Dispatches)
	}
	if s.Redistributions != 0 || s.StaleResults != 0 || s.WorkerRestarts != 0 {
		t.Fatalf("clean run shows recovery activity: %v", s)
	}
	if s.SubTasks != 36*4 {
		t.Fatalf("subtasks = %d, want 144", s.SubTasks)
	}
	if s.Messages == 0 || s.PayloadBytes == 0 || s.Elapsed <= 0 {
		t.Fatalf("traffic/elapsed not recorded: %v", s)
	}
}

// The static BCW policy must be exactly as correct as the dynamic one on
// arbitrary geometry (only performance differs).
func TestBlockCyclicMatchesSequentialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64, n, pr, slaves uint8) bool {
		size := int(n%32) + 8
		a := dp.RandomDNA(size, seed)
		b := dp.RandomDNA(size, seed+1)
		e := dp.NewEditDistance(a, b)
		cfg := core.Config{
			Slaves:          int(slaves%3) + 1,
			Threads:         2,
			ProcPartition:   dag.Size{Rows: int(pr%12) + 1, Cols: int(pr%9) + 2},
			ThreadPartition: dag.Size{Rows: 3, Cols: 3},
			Policy:          core.PolicyBlockCyclic,
			RunTimeout:      2 * time.Minute,
		}
		res, err := core.RunContext(context.Background(), e.Problem(), cfg)
		if err != nil {
			return false
		}
		got := res.Matrix()
		want := e.Sequential()
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
