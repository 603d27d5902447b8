package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
)

// RunContext executes problem p on an in-process cluster: a master driver
// and cfg.Slaves in-process members of its registry (Local links), each a
// worker loop with cfg.Threads compute goroutines that attaches the one job
// at its job-spec frame, from the Job handed over with it (Job.Runner). The
// job is the driver's (Driver.NewJob), drawn in the order cfg.Policy names.
// It blocks until the DP matrix is complete and returns the blocked result
// with run statistics. When ctx is cancelled (or its deadline passes) the
// master stops scheduling and the run returns ctx's error once the
// sub-tasks in flight drain, so cancellation waits at most one
// processor-level sub-task.
func RunContext[T any](ctx context.Context, p Problem[T], cfg Config) (*Result[T], error) {
	cfg, err := cfg.withDefaults()
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
			TaskTimeout:   cfg.TaskTimeout,
			MaxAttempts:   cfg.MaxAttempts,
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

	// The members join first: the job's partition and draw order count
	// them. Each computes with the job's partitions (Job.Runner), and gets
	// no task before the job, built below, starts.
	var jb *Job[T]
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

	jb, err = d.NewJob(0, p, cfg.ProcPartition, cfg.Policy, engine.JobParams{Timeout: cfg.RunTimeout}, engine.Config[T]{
		CacheKey:   cfg.CacheKey,
		Reclaim:    cfg.ReclaimBlocks,
		Trace:      cfg.Trace,
		OnProgress: cfg.Progress,
	})
	if err == nil {
		jb.Label, jb.faults = "core", newFaultState(cfg.Faults)
		// Restored sub-tasks commit in file order, a valid execution order,
		// and are written again to cfg.Checkpoint: the new stream is
		// self-contained.
		if cfg.Checkpoint != nil {
			jb.Engine.SetCheckpoint(checkpoint.NewWriter(cfg.Checkpoint))
		}
		if cfg.Restore != nil {
			if _, err = checkpoint.Replay(cfg.Restore, jb.Engine.Replay); err != nil {
				err = fmt.Errorf("core: %w", err)
			}
		}
	}
	if err == nil {
		if err = d.Start(jb); err == nil {
			err = d.Wait(ctx, jb)
		}
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
	return &Result[T]{Store: jb.Engine.Store(), Stats: st}, nil
}
