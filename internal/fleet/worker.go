package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
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
	// recv loop reports each receipt and completion) sends a hunger beacon,
	// re-armed while idleness persists; cancellation sends a graceful Leave.
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

	// runners holds the attached jobs' kernel state; only the recv loop
	// touches it. seen is the process-wide content-addressed block cache
	// shared by all runners (the worker half of the keyed wire format);
	// it is cleared whenever the attached set empties, mirroring the
	// master's per-member known-set reset — the JobSpec/JobEnd frames are
	// ordered on this one connection, so both sides observe the same
	// "last job detached" instant.
	runners := make(map[int32]*core.TaskRunner[T])
	seen := make(map[[32]byte]*matrix.Block[T])
	if err := cn.Send(comm.Message{Kind: comm.KindIdle}); err != nil {
		return fmt.Errorf("fleet: member %d announcing idle: %w", member, err)
	}
	for {
		msg, err := cn.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("fleet: member %d lost master: %w", member, err)
		}
		switch msg.Kind {
		case comm.KindJobSpec:
			var meta JobMeta
			if err := json.Unmarshal(msg.Payload, &meta); err != nil {
				return fmt.Errorf("fleet: member %d decoding job spec: %w", member, err)
			}
			if got := meta.digest(); got != meta.Digest {
				return fmt.Errorf("fleet: member %d: job %q spec digest mismatch (%s != %s)", member, meta.Name, got, meta.Digest)
			}
			if _, ok := runners[meta.Job]; ok {
				break // re-attach of a job we already hold
			}
			p, err := build(meta)
			if err != nil {
				return fmt.Errorf("fleet: member %d building job %q: %w", member, meta.Name, err)
			}
			if p.Size.Rows != meta.Rows || p.Size.Cols != meta.Cols {
				return fmt.Errorf("fleet: member %d: job %q builder produced size %v, master dispatched against %dx%d (builder/registry skew)",
					member, meta.Name, p.Size, meta.Rows, meta.Cols)
			}
			cfg := opts.Run
			cfg.ProcPartition = meta.Proc
			if meta.Thread.Valid() {
				cfg.ThreadPartition = meta.Thread
			}
			if cfg.Threads < 1 {
				cfg.Threads = 1
			}
			r, err := core.NewTaskRunner(p, cfg)
			if err != nil {
				return fmt.Errorf("fleet: member %d preparing job %q: %w", member, meta.Name, err)
			}
			r.SetBlockCache(seen)
			runners[meta.Job] = r
		case comm.KindJobEnd:
			delete(runners, msg.Job)
			if len(runners) == 0 {
				// Mirror the master's known-set reset: with no job
				// attached the master has forgotten what we hold, so
				// drop the blocks. Every runner holding the old map was
				// just deleted; future attaches get the fresh one.
				seen = make(map[[32]byte]*matrix.Block[T])
			}
		case comm.KindTask, comm.KindTaskBatch:
			noteActivity()
			r, ok := runners[msg.Job]
			if !ok {
				// The connection is ordered, so a task frame for an
				// unattached job means protocol corruption, not a race.
				return fmt.Errorf("fleet: member %d received task for unattached job %d", member, msg.Job)
			}
			// A frame's entries never mix jobs; they run through the job's
			// runner and flush at this worker's own bound.
			err := comm.ServeTasks(msg, opts.Run.Batch, func(vertex int32, task []byte) ([]byte, error) {
				if opts.TaskDelay != nil {
					if d := opts.TaskDelay(); d > 0 {
						time.Sleep(d)
					}
				}
				out, err := r.Run(vertex, task)
				if err != nil {
					// Fatal: the fleet's revocation reassigns the vertex.
					return nil, fmt.Errorf("fleet: member %d computing vertex %d of job %d: %w", member, vertex, msg.Job, err)
				}
				return out, nil
			}, cn.Send)
			if errors.Is(err, comm.ErrSend) {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("fleet: member %d answering job %d: %w", member, msg.Job, err)
			}
			if err != nil {
				return err
			}
			noteActivity() // idleness starts at completion
		case comm.KindHeartbeat:
			// The fleet's echo of our beacon.
		case comm.KindEnd:
			return nil
		default:
			// An unexpected kind on an ordered connection means protocol
			// corruption or version skew; die loudly so the fleet's
			// revocation path reassigns this member's leases.
			return fmt.Errorf("fleet: member %d received unexpected %v frame", member, msg.Kind)
		}
	}
}
