package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/sched"
)

// rankLink is fixed rank s of a transport as a member's Link; the
// transport is the run's to close.
type rankLink struct {
	tr comm.Transport
	s  int
}

func (l rankLink) Send(m comm.Message) error { return l.tr.Send(l.s, m) }
func (rankLink) Close() error                { return nil }

// runMaster executes the master part over transport tr and returns the
// completed matrix store: a Driver whose members are the fixed slave
// ranks (rank s is member s-1) runs one job, drawn in the order cfg.Policy
// names. cfg must already have defaults applied. Cancelling ctx finishes
// the run with ctx's error.
func runMaster[T any](ctx context.Context, p Problem[T], cfg Config, tr comm.Transport, ctrs *counters) (*Result[T], error) {
	// BCW is the static baseline: an idle slave may not take another's
	// vertex, so the mitigations stay off, and the tuner that arms them.
	dynamic := cfg.Policy != PolicyBlockCyclic
	d := NewDriver[T](DriverConfig{Pool: engine.PoolConfig{
		Batch:         cfg.Batch,
		Speculate:     cfg.Speculate && dynamic,
		Steal:         cfg.Steal && dynamic,
		Auto:          cfg.Auto && dynamic,
		CheckInterval: cfg.CheckInterval,
		Trace:         cfg.Trace,
	}})
	d.StartTick()
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
	ctrs.job = eng.Counters()
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

	var order sched.Order // nil: the dynamic pool's LIFO stack
	switch cfg.Policy {
	case PolicyBlockCyclic:
		order = sched.NewBlockCyclic(eng.Graph(), cfg.Slaves, cfg.BCWBlockCols)
	case PolicyAffinity:
		// Scored in the draw, under the driver's lock that guards its
		// members; v is ready, so its dependencies' keys are recorded.
		order = sched.NewAffinity(func(w int, v int32) int {
			n := 0
			for _, dep := range eng.Graph().Vertex(v).DataPre {
				if d.members[w].known.Has(eng.ResultKey(dep)) {
					n++
				}
			}
			return n
		})
	}
	jb := &Job[T]{Label: "core", Engine: eng, Params: d.pool.Params(engine.JobParams{Order: order})}
	for s := 1; s <= cfg.Slaves; s++ {
		d.add(&member{id: s - 1, link: rankLink{tr, s}, known: cfg.Cache.NewPeerSet()})
		d.StartSender(s - 1)
	}
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			msg, err := tr.Recv()
			if err != nil {
				return
			}
			d.Deliver(msg.From-1, msg)
		}
	}()

	err := d.Start(jb)
	if err == nil {
		if cfg.RunTimeout > 0 {
			timer := time.AfterFunc(cfg.RunTimeout, func() {
				d.End(jb, fmt.Errorf("core: run exceeded RunTimeout %v with %d sub-tasks remaining", cfg.RunTimeout, eng.Remaining()))
			})
			defer timer.Stop()
		}
		err = d.Wait(ctx, jb)
	}
	// Every sender tells its slave to end; closing the endpoint then ends
	// the receive loop.
	d.Close()
	tr.Close()
	//lint:ignore ctx-select bounded join: tr.Close() above forces the receive loop's Recv to error out, and cancellation already ended the job — selecting on ctx here would leak the loop
	<-recvDone

	if err != nil {
		return nil, err
	}
	return &Result[T]{Store: eng.Store()}, nil
}
