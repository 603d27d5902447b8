package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// WorkerOptions configures one fleet worker process (RunWorker).
type WorkerOptions struct {
	// Addr is the fleet master's address.
	Addr string
	// Name labels this member in the fleet's logs and metrics.
	Name string
	// HeartbeatInterval is the beacon period; must match (or undercut)
	// the fleet's (default 250 ms).
	HeartbeatInterval time.Duration
	// HeartbeatMiss sizes the worker-side read-idle bound (default 3).
	HeartbeatMiss int
	// DialTimeout bounds dialing plus handshake (default 10 s).
	DialTimeout time.Duration
	// Run is the worker's compute configuration (Threads, the Batch flush
	// bound, the thread level's timeouts); partitions are the jobs'.
	Run core.Config
	// TaskDelay, when non-nil, is consulted before each task executes;
	// the fault-injection hook for slowing a member down.
	TaskDelay func() time.Duration
	// HungerAfter, when positive, announces hunger after this long
	// without a task arriving (the fleet acts only when its Steal
	// option is on). Zero disables.
	HungerAfter time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatMiss < 1 {
		o.HeartbeatMiss = 3
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	return o
}

// Builder turns an attach frame's JobMeta back into the job's Problem —
// the worker-side half of the per-job spec handshake. The fleet worker
// verifies the meta digest and the built problem's size before accepting
// tasks, so a builder that diverges from the master's is refused at
// attach time.
type Builder[T any] func(meta JobMeta) (core.Problem[T], error)

// RunWorker joins the shared fleet at opts.Addr and computes tasks for
// any number of concurrent jobs until the fleet dismisses it (nil), the
// connection dies (error), or ctx is cancelled (a Leave frame goes out
// first). Kernel state is attached per job on the first job-spec frame
// and detached on job-end, so the worker's footprint follows the set of
// jobs it is actively serving. The loop, with its heartbeats and hunger
// beacons, is core's Worker; any failure, a computation's included, which
// the fleet's revocation reassigns, ends the member.
func RunWorker[T any](ctx context.Context, build Builder[T], opts WorkerOptions) error {
	opts = opts.withDefaults()
	if build == nil {
		return fmt.Errorf("fleet: RunWorker needs a job builder")
	}
	cn, welcome, err := comm.DialHello(opts.Addr, comm.Hello{Fleet: true, Name: opts.Name}, opts.DialTimeout)
	if err != nil {
		return err
	}
	idle := time.Duration(opts.HeartbeatMiss+1) * opts.HeartbeatInterval
	cn.SetReadIdle(idle)
	cn.SetWriteTimeout(idle)
	w := core.Worker[T]{
		Link:        cn,
		Batch:       opts.Run.Batch,
		Attach:      func(msg comm.Message) (*core.TaskRunner[T], error) { return attach(build, opts.Run, msg) },
		Beat:        opts.HeartbeatInterval,
		HungerAfter: opts.HungerAfter,
	}
	if opts.TaskDelay != nil {
		w.Before = func(int32) error {
			time.Sleep(opts.TaskDelay())
			return nil
		}
	}
	err = w.Serve(ctx)
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if err != nil {
		return fmt.Errorf("fleet: member %d: %w", welcome.Member, err)
	}
	return nil
}

// attach builds the runner of the job an attach frame names, refusing a
// frame whose digest does not match its meta and a builder whose problem
// is not the size the master dispatches against. Partition sizes come
// from the frame, the rest of the compute configuration from run.
func attach[T any](build Builder[T], run core.Config, msg comm.Message) (*core.TaskRunner[T], error) {
	var meta JobMeta
	if err := json.Unmarshal(msg.Payload, &meta); err != nil {
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	if got := meta.digest(); got != meta.Digest {
		return nil, fmt.Errorf("job %q spec digest mismatch (%s != %s)", meta.Name, got, meta.Digest)
	}
	p, err := build(meta)
	if err != nil {
		return nil, fmt.Errorf("building job %q: %w", meta.Name, err)
	}
	if p.Size.Rows != meta.Rows || p.Size.Cols != meta.Cols {
		return nil, fmt.Errorf("job %q builder produced size %v, master dispatched against %dx%d (builder/registry skew)",
			meta.Name, p.Size, meta.Rows, meta.Cols)
	}
	run.ProcPartition = meta.Proc
	if meta.Thread.Valid() {
		run.ThreadPartition = meta.Thread
	}
	run.Threads = max(run.Threads, 1)
	r, err := core.NewTaskRunner(p, run)
	if err != nil {
		return nil, fmt.Errorf("preparing job %q: %w", meta.Name, err)
	}
	return r, nil
}
