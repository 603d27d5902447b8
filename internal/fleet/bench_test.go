package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// BenchmarkDispatchBatch measures end-to-end run time over loopback TCP at
// a deliberately fine processor partition — the regime where per-message
// overhead (syscalls, frame encoding, scheduler round trips) dominates and
// batching pays. One iteration is a full DP run as a one-job fleet's job
// over two workers: the reported metric is runs/sec, plus vertices/sec and
// the realized mean batch size as custom metrics.
//
// Sub-benchmarks differ only in the batch bound of the fleet and its
// workers; batch=1 is the classic one-task-per-message protocol.
func BenchmarkDispatchBatch(b *testing.B) {
	for _, batch := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchmarkDispatchTCP(b, batch)
		})
	}
}

func benchmarkDispatchTCP(b *testing.B, batch int) {
	const workers = 2
	const n = 96
	e := dp.NewEditDistance(dp.RandomDNA(n, 1), dp.RandomDNA(n, 2))
	prob := e.Problem()
	req := JobRequest{
		Name:    "dispatch",
		Proc:    dag.Square(4), // 24x24 grid: 576 small tasks
		Thread:  dag.Square(4),
		Timeout: time.Minute,
	}
	vertices := 24 * 24

	f, err := New[int32](Options{Addr: "127.0.0.1:0", Batch: batch})
	if err != nil {
		b.Fatal(err)
	}
	var wdone sync.WaitGroup
	for w := 0; w < workers; w++ {
		wdone.Add(1)
		go func() {
			defer wdone.Done()
			err := RunWorker(context.Background(), func(JobMeta) (core.Problem[int32], error) { return prob, nil }, WorkerOptions{
				Addr: f.Addr(),
				Run:  core.Config{Threads: 2, Batch: batch},
			})
			if err != nil {
				b.Errorf("worker: %v", err)
			}
		}()
	}
	defer func() {
		f.Close()
		wdone.Wait()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = f.Registry().WaitLive(ctx, workers)
	cancel()
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	totalBatchMsgs, totalDispatches := int64(0), int64(0)
	for i := 0; i < b.N; i++ {
		res, err := f.Run(context.Background(), prob, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Tasks != int64(vertices) {
			b.Fatalf("tasks = %d, want %d", res.Stats.Tasks, vertices)
		}
		totalBatchMsgs += res.Stats.BatchMessages
		totalDispatches += res.Stats.Dispatches
	}
	b.ReportMetric(float64(vertices)*float64(b.N)/b.Elapsed().Seconds(), "vertices/sec")
	if totalBatchMsgs > 0 {
		b.ReportMetric(float64(totalDispatches)/float64(totalBatchMsgs), "vertices/batch-msg")
	}
}

// BenchmarkSharedFleet compares running four DP jobs back-to-back on the
// fleet (serial: each job has the whole pool to itself) against
// submitting them concurrently (shared: the fair-share policy interleaves
// their dispatch streams), at two dispatch batch sizes. Four workers with
// an emulated 200µs per-task cost serve both modes, so the comparison
// isolates scheduling, not compute. Reported metrics: mean makespan of
// one whole round, and p50/p95 per-job turnaround.
func BenchmarkSharedFleet(b *testing.B) {
	for _, batch := range []int{1, 4} {
		for _, mode := range []string{"serial", "shared"} {
			b.Run(fmt.Sprintf("%s/batch=%d", mode, batch), func(b *testing.B) {
				benchFleet(b, batch, mode == "shared")
			})
		}
	}
}

func benchFleet(b *testing.B, batch int, shared bool) {
	names := []string{"edit", "nussinov", "swgg", "healthy"}
	const workers = 4
	var makespans, turns []float64
	for i := 0; i < b.N; i++ {
		f, err := New[int32](Options{Addr: "127.0.0.1:0", Batch: batch})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wdone sync.WaitGroup
		for w := 0; w < workers; w++ {
			wdone.Add(1)
			go func() {
				defer wdone.Done()
				_ = RunWorker(ctx, testBuilder, WorkerOptions{
					Addr:      f.Addr(),
					Run:       core.Config{Threads: 2},
					taskDelay: func() time.Duration { return 200 * time.Microsecond },
				})
			}()
		}

		start := time.Now()
		turnarounds := make([]time.Duration, len(names))
		runOne := func(j int, name string) error {
			p, _, err := testProblem(name)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := f.Run(ctx, p, JobRequest{Name: name}); err != nil {
				return err
			}
			turnarounds[j] = time.Since(t0)
			return nil
		}
		if shared {
			var wg sync.WaitGroup
			for j, name := range names {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := runOne(j, name); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		} else {
			for j, name := range names {
				if err := runOne(j, name); err != nil {
					b.Fatal(err)
				}
			}
		}
		makespans = append(makespans, time.Since(start).Seconds()*1e3)
		for _, d := range turnarounds {
			turns = append(turns, d.Seconds()*1e3)
		}

		cancel()
		f.Close()
		wdone.Wait()
	}
	b.ReportMetric(mean(makespans), "makespan_ms")
	b.ReportMetric(quantile(turns, 0.50), "p50_turnaround_ms")
	b.ReportMetric(quantile(turns, 0.95), "p95_turnaround_ms")
	b.ReportMetric(0, "ns/op") // the custom metrics above are the result
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
