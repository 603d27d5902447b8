package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// WorkerOptions configures one fleet worker process.
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
	// Run carries the worker-local compute configuration (Threads,
	// WorkDelayPerCell, Batch flush bound, ...). Partition sizes come
	// from each job's attach frame, never from here.
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

// SpecRequest and SpecBuilder are the two ends of a one-job run whose
// master and workers each built the problem from their own flags
// (easyhps-launch -elastic, easyhps-worker -elastic): the master's
// core.Spec travels as the job's spec, and every worker checks it
// against its own before it computes a vertex.
//
// SpecRequest returns the request that submits the problem spec
// describes: the spec in the attach frame, its partitions, and its digest
// scoping the job's entries in the fleet's result cache, if it has one.
func SpecRequest(spec core.Spec) JobRequest {
	enc, _ := json.Marshal(spec) // strings and integers always encode
	return JobRequest{Name: spec.App, Spec: enc, Proc: spec.Proc, Thread: spec.Thread, CacheKey: spec.Digest()}
}

// SpecBuilder returns the Builder of a worker started with spec, for
// which it built p. An attach frame carrying another spec — the master
// was started with other -app/-n/-seed/-proc/-thread flags — is refused,
// naming both.
func SpecBuilder[T any](spec core.Spec, p core.Problem[T]) Builder[T] {
	return func(meta JobMeta) (core.Problem[T], error) {
		var master core.Spec
		if err := json.Unmarshal(meta.Spec, &master); err != nil {
			return core.Problem[T]{}, fmt.Errorf("fleet: decoding the problem spec of job %q: %w", meta.Name, err)
		}
		if master != spec {
			return core.Problem[T]{}, fmt.Errorf("problem spec mismatch: master runs %+v, this worker was started with %+v (check -app/-n/-seed/-proc/-thread flags)", master, spec)
		}
		return p, nil
	}
}

// RunWorker joins the shared fleet at opts.Addr and computes tasks for
// any number of concurrent jobs until the fleet dismisses it (nil), the
// connection dies (error), or ctx is cancelled (a Leave frame goes out
// first). Kernel state is attached per job on the first job-spec frame
// and detached on job-end, so the worker's footprint follows the set of
// jobs it is actively serving.
func RunWorker[T any](ctx context.Context, build Builder[T], opts WorkerOptions) error {
	opts = opts.withDefaults()
	if build == nil {
		return fmt.Errorf("fleet: RunWorker needs a job builder")
	}
	cn, welcome, err := comm.DialHello(opts.Addr, comm.Hello{
		Fleet: true,
		Name:  opts.Name,
	}, opts.DialTimeout)
	if err != nil {
		return err
	}
	defer cn.Close()
	member := welcome.Member
	idle := time.Duration(opts.HeartbeatMiss+1) * opts.HeartbeatInterval
	cn.SetReadIdle(idle)
	cn.SetWriteTimeout(idle)

	// One beacon goroutine: heartbeats prove liveness and provoke the echoes
	// that feed this side's read-idle bound; HungerAfter without a task (the
	// worker loop reports each task's start and each frame's completion)
	// sends a hunger beacon, re-armed while idleness persists; cancellation
	// sends a graceful Leave.
	stop := make(chan struct{})
	defer close(stop)
	activity := make(chan struct{}, 1)
	go func() {
		beat := time.NewTicker(opts.HeartbeatInterval)
		defer beat.Stop()
		var hunger <-chan time.Time // nil: never
		var timer *time.Timer
		if opts.HungerAfter > 0 {
			timer = time.NewTimer(opts.HungerAfter)
			defer timer.Stop()
			hunger = timer.C
		}
		for {
			var beacon comm.Kind
			select {
			case <-stop:
				return
			case <-ctx.Done():
				_ = cn.Send(comm.Message{Kind: comm.KindLeave})
				cn.Close()
				return
			case <-beat.C:
				beacon = comm.KindHeartbeat
			case <-activity:
				if timer != nil {
					if !timer.Stop() {
						select { // fired unread: drain before re-arming
						case <-timer.C:
						default:
						}
					}
					timer.Reset(opts.HungerAfter)
				}
				continue
			case <-hunger:
				beacon = comm.KindHunger
				timer.Reset(opts.HungerAfter)
			}
			_ = cn.Send(comm.Message{Kind: beacon}) // a dead link fails the recv loop
		}
	}()
	noteActivity := func() {
		select {
		case activity <- struct{}{}:
		default:
		}
	}

	// The worker loop is core's: jobs attach through their JobSpec frames,
	// a task starting and a frame's last answer going out are the activity
	// that re-arms the hunger timer, and any failure — a computation's
	// included, which the fleet's revocation reassigns — ends the member.
	err = core.Worker[T]{
		Recv: cn.Recv,
		Send: func(m comm.Message) error {
			if !m.More {
				noteActivity() // idleness starts at completion
			}
			return cn.Send(m)
		},
		Batch: opts.Run.Batch,
		Before: func(int32) error {
			if noteActivity(); opts.TaskDelay != nil {
				time.Sleep(opts.TaskDelay())
			}
			return nil
		},
		Attach: func(msg comm.Message) (*core.TaskRunner[T], error) { return attach(build, opts.Run, msg) },
	}.Serve(make(map[int32]*core.TaskRunner[T]))
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if err != nil {
		return fmt.Errorf("fleet: member %d: %w", member, err)
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
	if run.Threads < 1 {
		run.Threads = 1
	}
	r, err := core.NewTaskRunner(p, run)
	if err != nil {
		return nil, fmt.Errorf("preparing job %q: %w", meta.Name, err)
	}
	return r, nil
}
