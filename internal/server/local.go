package server

import (
	"encoding/json"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fleet"
)

// local is one in-process member of the manager's fleet: its core.Local
// link with the manager's job table between the link and the worker loop.
// The worker goroutine's own: the manager's job of each fleet job attached
// (nil: a job settled before its spec frame arrived, whose frames are
// dropped), and the problem and partition of the spec frame received last.
type local struct {
	*core.Local
	m       *Manager
	jobs    map[int32]*Job
	problem core.Problem[int32]
	proc    dag.Size
}

func newLocal(m *Manager, l *core.Local) *local {
	return &local{Local: l, m: m, jobs: make(map[int32]*Job)}
}

// Recv hands the worker its next frame. The frames of a job that had
// settled when its spec arrived are not handed over: its tasks are answered
// with an idle frame, the way the sender's token comes back after a result
// nobody waits for.
func (l *local) Recv() (comm.Message, error) {
	for {
		msg, err := l.Local.Recv()
		if err != nil {
			return msg, err
		}
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
				_ = l.Send(comm.Message{Kind: comm.KindIdle})
				continue
			}
		}
		return msg, nil
	}
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

// fleetBeat is the heartbeat period of the manager's own fleet.
const fleetBeat = 250 * time.Millisecond

// join admits one in-process member of the manager's own fleet under name
// and serves it on a goroutine of its own until the fleet dismisses it.
func (m *Manager) join(name string) {
	l := newLocal(m, m.fleet.Join(name))
	m.members.Add(1)
	go func() {
		defer m.members.Done()
		// How a member ended is the fleet's to see: a dismissal, or a death
		// its registry records and whose leases it revokes.
		_ = core.Worker[int32]{Link: l, Batch: m.cfg.Run.Batch, Attach: l.attach, HungerAfter: l.HungerAfter()}.Serve(m.rootCtx, nil)
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
