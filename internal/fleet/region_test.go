package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/testseed"
)

// regionSpec is one random instance of a wavefront-family kernel, as it
// travels to the workers in the attach frame.
type regionSpec struct {
	Kernel       string
	Rows, Cols   int
	SeedA, SeedB int64
}

func (s regionSpec) seqs() (a, b []byte) {
	return dp.RandomDNA(s.Rows, s.SeedA), dp.RandomDNA(s.Cols, s.SeedB)
}

func (s regionSpec) int32Problem() (core.Problem[int32], [][]int32, error) {
	a, b := s.seqs()
	switch s.Kernel {
	case "editdist":
		e := dp.NewEditDistance(a, b)
		return e.Problem(), e.Sequential(), nil
	case "lcs":
		l := dp.NewLCS(a, b)
		return l.Problem(), l.Sequential(), nil
	case "needleman":
		nw := dp.NewNeedlemanWunsch(a, b)
		return nw.Problem(), nw.Sequential(), nil
	}
	return core.Problem[int32]{}, nil, fmt.Errorf("unknown kernel %q", s.Kernel)
}

// regionJob is one spec under one pair of partitions.
type regionJob struct {
	spec         regionSpec
	proc, thread dag.Size
}

// regionFleet runs every job on a two-worker fleet with a result store,
// once without a cache key — every task its regions in the plain format —
// and once with one: the keyed format, a region under a key derived from its
// block's, a dependency the member computed itself a whole-block reference.
func regionFleet[T any](t *testing.T, problem func(regionSpec) (core.Problem[T], [][]T, error), jobs []regionJob) {
	t.Helper()
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New[T](Options{Addr: "127.0.0.1:0", HeartbeatInterval: 50 * time.Millisecond, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wctx, stopWorkers := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	defer wwg.Wait()
	defer stopWorkers()
	build := func(meta JobMeta) (core.Problem[T], error) {
		var s regionSpec
		if err := json.Unmarshal(meta.Spec, &s); err != nil {
			return core.Problem[T]{}, err
		}
		p, _, err := problem(s)
		return p, err
	}
	for w := 0; w < 2; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			_ = RunWorker(wctx, build, WorkerOptions{
				Addr: f.Addr(), Name: fmt.Sprintf("w%d", w), Run: core.Config{Threads: 1},
			})
		}(w)
	}
	joinCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Registry().WaitLive(joinCtx, 2); err != nil {
		t.Fatal(err)
	}
	var shipped, referenced int64 // in the keyed format, over all jobs
	for k, jb := range jobs {
		prob, want, err := problem(jb.spec)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(jb.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, cacheKey := range []string{"", fmt.Sprintf("regions:%d:%s", k, raw)} {
			label := fmt.Sprintf("%s proc %v thread %v cache key %q", raw, jb.proc, jb.thread, cacheKey)
			res, err := f.Run(context.Background(), prob, JobRequest{
				Name: jb.spec.Kernel, Spec: raw, Proc: jb.proc, Thread: jb.thread, CacheKey: cacheKey,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(res.Store.Assemble(), want) {
				t.Fatalf("%s: matrix differs from Sequential()", label)
			}
			if cacheKey == "" && res.Stats.BlocksSkipped != 0 {
				t.Fatalf("%s: %d dependencies referenced in the plain format", label, res.Stats.BlocksSkipped)
			}
			if cacheKey != "" {
				shipped, referenced = shipped+res.Stats.BlocksShipped, referenced+res.Stats.BlocksSkipped
				checkCachedPayloads(t, store, cacheKey, prob, res.Store.Geometry(), want)
			}
		}
	}
	if shipped == 0 || referenced == 0 {
		t.Fatalf("keyed runs shipped %d regions and referenced %d whole blocks: two workers should see both", shipped, referenced)
	}
}

// The wavefront family over a two-worker fleet, plain and keyed: see
// core's TestRegionShippingMatchesSequentialProperty for the shapes.
func TestFleetRegionShippingMatchesSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 25)))
	upTo := func(max int) dag.Size { return dag.Size{Rows: 1 + rng.Intn(max), Cols: 1 + rng.Intn(max)} }
	var jobs []regionJob
	for trial := 0; trial < 6; trial++ {
		size, proc, thread := upTo(36), upTo(12), upTo(5)
		switch trial % 3 {
		case 1:
			proc.Rows = 1
		case 2:
			proc = dag.Size{Rows: 6 + rng.Intn(6), Cols: 1}
		}
		for _, kernel := range []string{"editdist", "lcs", "needleman"} {
			jobs = append(jobs, regionJob{regionSpec{Kernel: kernel, Rows: size.Rows, Cols: size.Cols, SeedA: rng.Int63(), SeedB: rng.Int63()}, proc, thread})
		}
	}
	regionFleet(t, regionSpec.int32Problem, jobs)
}
