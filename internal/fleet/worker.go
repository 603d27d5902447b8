package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// WorkerOptions configures one fleet worker process (RunWorker); its
// timing and its results' flush bound are the fleet's, told in the welcome.
type WorkerOptions struct {
	// Addr is the fleet master's address.
	Addr string
	// Name labels this member in the fleet's logs and metrics.
	Name string
	// DialTimeout bounds dialing plus handshake (default 10 s).
	DialTimeout time.Duration
	// Run is the worker's compute configuration, read by its thread level:
	// Threads, Policy, MaxAttempts and the ThreadPartition of a job whose
	// attach frame names none. The processor partition is each job's, and
	// Batch and the processor level's timeouts are the master's.
	Run core.Config

	taskDelay func() time.Duration // when non-nil, waited before each task: the fault harness's seam
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
// jobs it is actively serving. The loop, with its heartbeats, is core's
// Worker; any failure, a computation's included, which
// the fleet's revocation reassigns, ends the member.
func RunWorker[T any](ctx context.Context, build Builder[T], opts WorkerOptions) error {
	if build == nil {
		return fmt.Errorf("fleet: RunWorker needs a job builder")
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	cn, welcome, err := comm.DialHello(opts.Addr, comm.Hello{Fleet: true, Name: opts.Name}, opts.DialTimeout)
	if err != nil {
		return err
	}
	if welcome.Heartbeat <= 0 {
		cn.Close() // beatless, this member could never tell a dead master
		return fmt.Errorf("fleet: member %d: welcome carries heartbeat period %v, want a positive one", welcome.Member, welcome.Heartbeat)
	}
	w := core.Worker[T]{
		Link:   cn,
		Attach: func(msg comm.Message) (*core.TaskRunner[T], error) { return attach(build, opts.Run, msg) },
		Batch:  welcome.Batch,
		Beat:   welcome.Heartbeat,
	}
	if opts.taskDelay != nil {
		w.Before = func(int32) error {
			time.Sleep(opts.taskDelay())
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
