package server

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fleet"
)

// local is the link of one in-process member of the manager's fleet: a
// queue of the driver's frames that the member's worker loop (fleet.Serve)
// drains, and on the way back the driver's receive side, which the worker
// calls on its own goroutine. The driver's end is toMember.
type local struct {
	m       *Manager
	deliver func(comm.Message)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []comm.Message
	closed bool

	// The worker goroutine's own: the frames taken off the queue and not yet
	// received, the manager's job of each fleet job attached (nil: a job
	// settled before its spec frame arrived, whose frames are dropped), and
	// the problem and partition of the spec frame received last.
	pending []comm.Message
	jobs    map[int32]*Job
	problem core.Problem[int32]
	proc    dag.Size
}

func newLocal(m *Manager) *local {
	l := &local{m: m, jobs: make(map[int32]*Job)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// toMember is the driver's end of a local link. Its Send runs under the
// member's attachMu and on heartbeat echoes, so it queues and never waits
// for the worker.
type toMember struct{ l *local }

func (t toMember) Send(msg comm.Message) error {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	if t.l.closed {
		return comm.ErrClosed
	}
	t.l.queue = append(t.l.queue, msg)
	t.l.cond.Signal()
	return nil
}

func (t toMember) Close() error { return t.l.Close() }

// Close ends the link from either side; the worker still receives what was
// queued before.
func (l *local) Close() error {
	l.mu.Lock()
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	return nil
}

// Recv hands the worker its next frame, counting a task frame to its job's
// traffic. The frames of a job that had settled when its spec arrived are
// not handed over: its tasks are answered with an idle frame, the way the
// sender's token comes back after a result nobody waits for.
func (l *local) Recv() (comm.Message, error) {
	for {
		if len(l.pending) == 0 {
			l.mu.Lock()
			for len(l.queue) == 0 && !l.closed {
				l.cond.Wait()
			}
			l.pending, l.queue = l.queue, l.pending[:0]
			l.mu.Unlock()
			if len(l.pending) == 0 {
				return comm.Message{}, comm.ErrClosed
			}
		}
		msg := l.pending[0]
		l.pending[0] = comm.Message{} // the queue's array is reused
		l.pending = l.pending[1:]
		// Not a dispatch on the kind: the worker loop judges every frame
		// handed over, unknown ones included.
		j, attached := l.jobs[msg.Job]
		switch kind := msg.Kind; {
		case kind == comm.KindJobSpec:
			var meta fleet.JobMeta
			l.problem = core.Problem[int32]{} // an undecodable frame's attach fails on it
			if json.Unmarshal(msg.Payload, &meta) != nil {
				return msg, nil
			}
			j, _ = l.m.Get(meta.Name)
			if l.problem, l.proc = j.inputs(), meta.Proc; l.problem.Kernel == nil {
				l.jobs[msg.Job] = nil // settled: its frames are dropped
				continue
			}
			l.jobs[msg.Job] = j
		case kind == comm.KindJobEnd:
			delete(l.jobs, msg.Job)
			if attached && j == nil {
				continue
			}
		case kind == comm.KindTask || kind == comm.KindTaskBatch:
			if attached && j == nil {
				l.deliver(comm.Message{Kind: comm.KindIdle})
				continue
			}
			if j != nil {
				j.count(msg)
			}
		}
		return msg, nil
	}
}

// Send hands the worker's frame to the driver on the calling goroutine,
// counting a result frame to its job's traffic. Only the worker loop sends
// results; the beacon goroutine's frames do not touch jobs.
func (l *local) Send(msg comm.Message) error {
	if msg.Kind == comm.KindResult || msg.Kind == comm.KindResultBatch {
		if j := l.jobs[msg.Job]; j != nil {
			j.count(msg)
		}
	}
	l.deliver(msg)
	return nil
}

// attach builds the member's runner of the job whose spec frame Recv just
// handed over, from the problem in the manager's table — no
// Registry.Build — and the partition the frame names, and lists it with
// the job, whose sub-tasks are its runners'.
func (l *local) attach(msg comm.Message) (*core.TaskRunner[int32], error) {
	run := l.m.cfg.Run
	run.ProcPartition = l.proc
	r, err := core.NewTaskRunner(l.problem, run)
	if err != nil {
		return nil, err
	}
	if j := l.jobs[msg.Job]; j != nil {
		j.mu.Lock()
		if !j.state.Terminal() {
			j.runners = append(j.runners, r)
		}
		j.mu.Unlock()
	}
	return r, nil
}

// fleetBeat is the heartbeat period of the manager's own fleet and of its
// in-process members.
const fleetBeat = 250 * time.Millisecond

// join admits one in-process member of the manager's own fleet under name
// and serves it on a goroutine of its own until the fleet dismisses it.
func (m *Manager) join(name string) {
	l := newLocal(m)
	id, deliver := m.fleet.Join(name, toMember{l})
	l.deliver = deliver
	opts := fleet.WorkerOptions{Name: name, HeartbeatInterval: fleetBeat, Run: m.cfg.Run}
	if m.cfg.Run.Steal || m.cfg.Run.Auto {
		// A steal feeds a hunger beacon: announce one after two silent
		// heartbeat intervals, as easyhps-worker -steal does.
		opts.HungerAfter = 2 * fleetBeat
	}
	m.members.Add(1)
	go func() {
		defer m.members.Done()
		// How a member ended is the fleet's to see: a dismissal, or a death
		// its registry records and whose leases it revokes.
		_ = fleet.Serve(m.rootCtx, l, id, l.attach, opts)
	}()
}

// inputs is the job's problem while it has one, until it settles; a nil
// job has none.
func (j *Job) inputs() core.Problem[int32] {
	if j == nil {
		return core.Problem[int32]{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.problem
}

// count adds one frame of the job's tasks or results to its traffic.
func (j *Job) count(msg comm.Message) {
	j.messages.Add(1)
	j.payload.Add(int64(msg.PayloadLen()))
}
