package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/tune"
)

// RunContext executes problem p on an in-process cluster: a master driver
// and cfg.Slaves in-process members of its registry (Local links), each a
// worker loop with cfg.Threads compute goroutines that attaches the one job
// at its job-spec frame, from the Job handed over with it (Job.Runner); the
// job is drawn in the order cfg.Policy names (Driver.Order). It blocks
// until the DP matrix is complete and returns the blocked result with run
// statistics. When ctx is cancelled (or its deadline passes) the master
// stops scheduling and the run returns ctx's error once the sub-tasks in
// flight drain, so cancellation waits at most one processor-level sub-task.
func RunContext[T any](ctx context.Context, p Problem[T], cfg Config) (*Result[T], error) {
	cfg, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// BCW is the static baseline: an idle member may not take another's
	// vertex, so the mitigations stay off, and the tuner that arms them.
	dynamic := cfg.Policy != PolicyBlockCyclic
	d := NewDriver[T](DriverConfig{
		Pool: engine.PoolConfig{
			Batch:         cfg.Batch,
			Speculate:     cfg.Speculate && dynamic,
			Steal:         cfg.Steal && dynamic,
			Auto:          cfg.Auto && dynamic,
			CheckInterval: cfg.CheckInterval,
			Trace:         cfg.Trace,
		},
		Registry: NewRegistry(nil, nil),
		Cache:    cfg.Cache,
	})
	defer d.Close()
	eng := engine.New(p.Kernel.Pattern(), p.Codec, p.Size, cfg.ProcPartition, engine.Config[T]{
		TaskTimeout: cfg.TaskTimeout,
		MaxAttempts: cfg.MaxAttempts,
		Cache:       cfg.Cache,
		CacheKey:    cfg.CacheKey,
		Delta:       cfg.DeltaShipping,
		Reclaim:     cfg.ReclaimBlocks,
		Trace:       cfg.Trace,
		OnProgress:  cfg.Progress,
	})
	// Restored sub-tasks commit in file order, a valid execution order, and
	// are written again to cfg.Checkpoint: the new stream is self-contained.
	if cfg.Checkpoint != nil {
		eng.SetCheckpoint(checkpoint.NewWriter(cfg.Checkpoint))
	}
	if cfg.Restore != nil {
		if _, err := checkpoint.Replay(cfg.Restore, eng.Replay); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	order := d.Order(cfg.Policy, eng, cfg.Slaves, cfg.BCWBlockCols)
	jb := &Job[T]{Label: "core", Engine: eng, Params: d.pool.Params(engine.JobParams{Order: order, Timeout: cfg.RunTimeout}),
		Problem: p, Thread: cfg.ThreadPartition, faults: newFaultState(cfg.Faults)}

	var members sync.WaitGroup
	for i := range cfg.Slaves {
		w := d.JoinLocal("", cfg)
		id := i + 1 // the fresh registry's, in join order (FaultPlan.CrashOnTask)
		w.Before = func(vertex int32) error {
			if jb.faults.crashNow(id) {
				return errCrashed
			}
			time.Sleep(jb.faults.stallTask(vertex))
			return nil
		}
		members.Add(1)
		go func() {
			defer members.Done()
			// The driver dismisses its members, and sees their failures: a
			// dead link revokes its leases, a silent member's expire.
			_ = w.Serve(context.WithoutCancel(ctx))
		}()
	}
	d.StartTick()

	if err = d.Start(jb); err == nil {
		err = d.Wait(ctx, jb)
	}
	// Every sender tells its member to end, then every link closes.
	d.Close()
	elapsed := time.Since(start)
	members.Wait()
	if err != nil {
		return nil, err
	}
	st := jb.RunStats()
	st.Elapsed = elapsed
	return &Result[T]{Store: eng.Store(), Stats: st}, nil
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
