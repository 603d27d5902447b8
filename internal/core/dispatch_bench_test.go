package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

// BenchmarkDispatchBatch measures end-to-end run time over the real TCP
// transport at a deliberately fine processor partition — the regime where
// per-message overhead (syscalls, gob envelopes, scheduler round trips)
// dominates and batching pays. One iteration is a full DP run: the
// reported metric is runs/sec, plus vertices/sec and the realized mean
// batch size as custom metrics.
//
// Sub-benchmarks differ only in Config.Batch; batch=1 is the classic
// one-task-per-message protocol.
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
	cfg := core.Config{
		Threads:         2,
		ProcPartition:   dag.Square(4), // 24x24 grid: 576 small tasks
		ThreadPartition: dag.Square(4),
		Batch:           batch,
		RunTimeout:      time.Minute,
	}
	vertices := 24 * 24

	b.ReportAllocs()
	totalBatchMsgs, totalDispatches := int64(0), int64(0)
	for i := 0; i < b.N; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", 39700+batch)
		var wg sync.WaitGroup
		for r := 1; r <= workers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tr, err := comm.DialWorker(addr, r, workers, 10*time.Second)
				if err != nil {
					b.Errorf("worker %d dial: %v", r, err)
					return
				}
				defer tr.Close()
				if err := core.RunSlave(prob, cfg, tr); err != nil {
					b.Errorf("worker %d: %v", r, err)
				}
			}(r)
		}
		tr, err := comm.ListenMaster(addr, workers, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunMasterContext(context.Background(), prob, cfg, tr)
		tr.Close()
		wg.Wait()
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
