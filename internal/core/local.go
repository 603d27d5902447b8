package core

import (
	"fmt"
	"sync"

	"repro/internal/comm"
)

// Conn is a worker's end of its link to the driver: a fleet worker
// process's *comm.Conn, or an in-process member's Local.
type Conn interface {
	Link
	Recv() (comm.Message, error)
}

// inProcess is the address of an in-process member, which the registry's
// heartbeat sweep passes over.
const inProcess = "in-process"

// Local is the link of one in-process member (Driver.JoinLocal): a queue of
// the driver's frames, which never waits for the worker (it is sent to under
// attachMu), beside the Job handed over with each spec frame, and back the
// driver's receive side called on the worker's goroutine.
type Local struct {
	deliver func(comm.Message)
	handed  sync.Map // job id → *Job, from its spec frame's send until the worker attaches it

	mu     sync.Mutex
	queue  []comm.Message
	closed bool
	more   chan struct{} // a token once the queue or closed changed: the worker's wake-up
}

// NewLocal returns an in-process link: the member's end, whose frames go to
// deliver, and the driver's end.
func NewLocal(deliver func(comm.Message)) (*Local, Link) {
	l := &Local{deliver: deliver, more: make(chan struct{}, 1)}
	return l, toMember{l}
}

// JoinLocal admits an in-process member named name and returns its worker,
// ready to Serve, over a fresh Local link, its sender started; nil once the
// driver is closed. The worker computes with run, each job from the Job
// handed over with its spec frame (Job.Runner).
// The registry never sweeps the member: it cannot fall silent apart from
// its process, and a starved beacon goroutine must not cost it.
func (d *Driver[T]) JoinLocal(name string, run Config) *Worker[T] {
	id := d.reg.Admit(name, inProcess).ID
	l, end := NewLocal(func(msg comm.Message) { d.Deliver(id, msg) })
	if !d.AddMember(id, end, true) {
		return nil
	}
	return &Worker[T]{Link: l, Batch: d.cfg.Pool.Batch, Attach: func(msg comm.Message) (*TaskRunner[T], error) {
		if jb, ok := l.handed.LoadAndDelete(msg.Job); ok {
			return jb.(*Job[T]).Runner(run)
		}
		return nil, fmt.Errorf("job %d was not handed over with its spec frame", msg.Job)
	}}
}

// toMember is the driver's end of a Local link; its Close is the link's.
type toMember struct{ *Local }

func (t toMember) Send(msg comm.Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return comm.ErrClosed
	}
	t.queue = append(t.queue, msg)
	select {
	case t.more <- struct{}{}:
	default:
	}
	return nil
}

// Close ends the link from either side; the worker still receives what was
// queued before.
func (l *Local) Close() error {
	l.mu.Lock()
	l.closed = true
	select {
	case l.more <- struct{}{}:
	default:
	}
	l.mu.Unlock()
	return nil
}

// Recv hands the worker the driver's next frame, and comm.ErrClosed once
// the link is closed and drained: the driver closes an in-process link
// only to dismiss its member.
func (l *Local) Recv() (comm.Message, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.closed {
		l.mu.Unlock()
		<-l.more
		l.mu.Lock()
	}
	if len(l.queue) == 0 {
		return comm.Message{}, comm.ErrClosed
	}
	// Shift down rather than reslice, so the queue keeps its one array.
	msg := l.queue[0]
	n := copy(l.queue, l.queue[1:])
	l.queue[n] = comm.Message{} // drop the payload with the frame
	l.queue = l.queue[:n]
	return msg, nil
}

// Send hands the worker's frame to the driver on the calling goroutine.
func (l *Local) Send(msg comm.Message) error {
	l.deliver(msg)
	return nil
}
