package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/tune"
)

// RunContext executes problem p on an in-process emulated cluster: one
// master rank plus cfg.Slaves slave ranks connected by a channel
// transport with cfg.Latency, each slave running cfg.Threads compute
// goroutines. It blocks until the DP matrix is complete and returns the
// blocked result with run statistics. When ctx is cancelled (or its
// deadline passes) the master stops scheduling, slaves finish the
// sub-tasks already in flight, and the run returns ctx's error. The
// cancellation latency is therefore bounded by one processor-level
// sub-task.
func RunContext[T any](ctx context.Context, p Problem[T], cfg Config) (*Result[T], error) {
	cfg, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	nw := comm.NewChanNetwork(cfg.Slaves+1, cfg.Latency)
	defer nw.Close()
	ctrs := &counters{}
	faults := newFaultState(cfg.Faults)

	// The master starts once every slave has announced itself, as every
	// rank of a real cluster has connected before it does: however the
	// goroutines are scheduled, no slave comes up to a finished run.
	var slaves, up sync.WaitGroup
	up.Add(cfg.Slaves)
	for s := 1; s <= cfg.Slaves; s++ {
		slaves.Add(1)
		go func(s int) {
			defer slaves.Done()
			// Slave errors surface as master-side timeouts; the
			// slave loop itself only fails on codec bugs, which the
			// master also detects.
			_ = runSlave(p, cfg, nw.Endpoint(s), faults, ctrs, up.Done)
		}(s)
	}
	up.Wait()

	start := time.Now()
	res, err := runMaster(ctx, p, cfg, nw.Endpoint(0), ctrs)
	elapsed := time.Since(start)
	nw.Close()
	slaves.Wait()
	if err != nil {
		return nil, err
	}
	res.Stats = ctrs.snapshot()
	res.Stats.Elapsed = elapsed
	res.Stats.Messages, res.Stats.PayloadBytes = nw.Traffic()
	return res, nil
}

func prepare[T any](p Problem[T], cfg Config) (Config, error) {
	if p.Kernel == nil {
		return cfg, fmt.Errorf("core: problem %q has no kernel", p.Name)
	}
	if p.Codec == nil {
		return cfg, fmt.Errorf("core: problem %q has no codec", p.Name)
	}
	if cfg.Auto && !cfg.ProcPartition.Valid() {
		// The advisor needs the kernel's cost model and the worker
		// count, neither of which Config.withDefaults can see.
		cm, _ := p.Kernel.(tune.CostModel)
		workers := cfg.Slaves * max(cfg.Threads, 1)
		cfg.ProcPartition = tune.AdvisePartition(p.Size.Rows, p.Size.Cols, workers, cm)
	}
	return cfg.withDefaults(p.Size)
}
