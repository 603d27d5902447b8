package easyhps

// Microbenchmarks of the substrates and end-to-end runs on real compute.
// The paper's figures replay on the simulator in virtual time: their shape
// claims are internal/bench's tests, and cmd/easyhps-bench prints the
// tables EXPERIMENTS.md records.

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/server"
)

// --- substrate microbenchmarks ---

func BenchmarkDAGBuildWavefront(b *testing.B) {
	g := dag.MatrixGeometry(dag.Square(2500), dag.Square(50)) // 50x50 grid
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dag.Build(dag.Wavefront{}, g)
	}
}

func BenchmarkDAGParseDrain(b *testing.B) {
	g := dag.MatrixGeometry(dag.Square(2500), dag.Square(50))
	gr := dag.Build(dag.Wavefront{}, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := dag.NewParser(gr)
		queue := p.InitialReady()
		for len(queue) > 0 {
			id := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			queue = append(queue, p.Complete(id)...)
		}
		if !p.Finished() {
			b.Fatal("drain incomplete")
		}
	}
}

func BenchmarkCodecBinaryBlock(b *testing.B) {
	blk := matrix.NewBlock[int32](dag.Rect{Rows: 200, Cols: 200})
	codec := matrix.BinaryCodec[int32]{}
	blocks := []*matrix.Block[int32]{blk}
	b.SetBytes(int64(len(blk.Cells) * 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := matrix.EncodeBlocks[int32](codec, blocks)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := matrix.DecodeBlocks[int32](codec, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChanTransportRoundTrip(b *testing.B) {
	nw := comm.NewChanNetwork(2, comm.LatencyModel{})
	defer nw.Close()
	m0, s1 := nw.Endpoint(0), nw.Endpoint(1)
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m0.Send(1, comm.Message{Kind: comm.KindTask, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := s1.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDispatcherDynamic(b *testing.B) {
	d := sched.NewDynamic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Ready(int32(i))
		if _, ok := d.Next(0); !ok {
			b.Fatal("no vertex")
		}
	}
}

func BenchmarkSWGGCellKernel(b *testing.B) {
	// Raw per-cell cost of the O(n) SWGG recurrence at row/col 256: a
	// row segment of one cell, the unit a per-cell kernel pays.
	a := dp.RandomDNA(512, 1)
	s := dp.NewSWGG(a, dp.RandomDNA(512, 2))
	out := matrix.NewBlock[int32](dag.Rect{Row0: 256, Col0: 256, Rows: 1, Cols: 1})
	full := matrix.NewBlock[int32](dag.Rect{Rows: 512, Cols: 512})
	v := matrix.NewView(out, []*matrix.Block[int32]{full}, s.Pattern(), s.Size(), s.Boundary)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Row(v, 256, 256, out.Cells)
	}
}

func BenchmarkRunEndToEndNoEmulation(b *testing.B) {
	// Raw runtime overhead: a real (non-emulated) edit-distance run on
	// 3 slaves x 4 threads, no injected latency or work.
	e := dp.NewEditDistance(dp.RandomDNA(512, 1), dp.RandomDNA(512, 2))
	cfg := core.Config{
		Slaves: 3, Threads: 4,
		ProcPartition:   dag.Square(64),
		ThreadPartition: dag.Square(16),
		RunTimeout:      5 * time.Minute,
	}
	prob := e.Problem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunContext(context.Background(), prob, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerThroughput is the first service-level datapoint: N small
// edit-distance jobs pushed through the job service's HTTP API
// concurrently, against the same jobs run back-to-back through Run. The
// jobs/sec metric shows what multiplexing concurrent jobs onto the shared
// deployment buys over serial batch execution.
func BenchmarkServerThroughput(b *testing.B) {
	const jobs = 8
	runCfg := core.Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   dag.Square(16),
		ThreadPartition: dag.Square(8),
		RunTimeout:      5 * time.Minute,
	}
	specs := make([]server.JobSpec, jobs)
	for i := range specs {
		specs[i] = server.JobSpec{Kernel: "editdist", N: 64, Seed: int64(i + 1)}
	}

	b.Run("server-concurrent", func(b *testing.B) {
		mgr := server.NewManager(server.ManagerConfig{
			Run:           runCfg,
			MaxConcurrent: 4,
			QueueDepth:    jobs,
		}, nil)
		ts := httptest.NewServer(server.NewHandler(mgr))
		defer ts.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = mgr.Shutdown(ctx)
		}()
		c := client.New(ts.URL, ts.Client())
		ctx := context.Background()

		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, spec := range specs {
				wg.Add(1)
				go func(spec server.JobSpec) {
					defer wg.Done()
					st, err := c.Submit(ctx, spec)
					if err != nil {
						b.Error(err)
						return
					}
					final, err := c.Wait(ctx, st.ID, 2*time.Millisecond)
					if err != nil {
						b.Error(err)
						return
					}
					if final.State != server.StateDone {
						b.Errorf("job finished %s: %s", final.State, final.Error)
					}
				}(spec)
			}
			wg.Wait()
		}
		b.ReportMetric(float64(jobs*b.N)/time.Since(start).Seconds(), "jobs/sec")
	})

	b.Run("direct-serial", func(b *testing.B) {
		problems := make([]core.Problem[int32], jobs)
		for i := range problems {
			a := dp.RandomDNA(64, int64(i+1))
			bb := dp.MutateSeq(a, dp.DNAAlphabet, 0.15, int64(i+2))
			problems[i] = dp.NewEditDistance(a, bb).Problem()
		}
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, prob := range problems {
				if _, err := core.RunContext(context.Background(), prob, runCfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(jobs*b.N)/time.Since(start).Seconds(), "jobs/sec")
	})
}
