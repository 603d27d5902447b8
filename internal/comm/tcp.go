package comm

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP transport: a star topology, one rank-0 master and its fixed ranks.
// The master listens; each worker dials in and announces its rank with a
// Hello frame and is answered with a Welcome. Handshake and messages alike
// are the tagged binary frames of wire.go over comm.Conn links with TCP
// keepalive, so a vanished peer surfaces as an error instead of a hang.
// No tool deploys it — a worker process joins a fleet (internal/fleet),
// which recovers a lost member — and what is left of it is the loopback
// pair the repo benchmark times the wire with.
//
// Only master<->slave links exist (the runtime never needs slave<->slave
// traffic), so Send from a worker accepts rank 0 only.

// TCPOptions is what a TCP endpoint takes beyond the rendezvous
// parameters: nothing since the hello lost its digest.
type TCPOptions struct{}

// TCPTransport implements Transport over TCP connections.
type TCPTransport struct {
	rank int
	size int
	in   chan Message
	done chan struct{}
	once sync.Once

	mu    sync.Mutex
	conns map[int]*Conn
	ln    net.Listener
}

// ListenMasterOn starts the master endpoint (rank 0) on a listener the
// caller already bound and waits until exactly slaves workers have
// connected and identified themselves, or the timeout expires. It owns ln
// from here on — closed on every error path and on transport Close. A
// pre-bound listener lets callers learn the actual address (port 0) and
// dial it before the accept loop starts, without retry loops.
func ListenMasterOn(ln net.Listener, slaves int, timeout time.Duration, _ TCPOptions) (*TCPTransport, error) {
	if slaves < 1 {
		ln.Close()
		return nil, fmt.Errorf("comm: need at least one slave, got %d", slaves)
	}
	t := &TCPTransport{
		rank:  0,
		size:  slaves + 1,
		in:    make(chan Message, 16*(slaves+1)+256),
		done:  make(chan struct{}),
		conns: make(map[int]*Conn),
		ln:    ln,
	}
	deadline := time.Now().Add(timeout)
	var refused error // the last join turned away, for the timeout's diagnosis
	for t.connCount() < slaves {
		if dl, ok := ln.(*net.TCPListener); ok {
			if err := dl.SetDeadline(deadline); err != nil {
				ln.Close()
				return nil, err
			}
		}
		c, err := ln.Accept()
		if err != nil {
			ln.Close()
			if refused != nil {
				err = fmt.Errorf("%w (last join turned away: %v)", err, refused)
			}
			return nil, fmt.Errorf("comm: accepting worker %d of %d: %w", t.connCount()+1, slaves, err)
		}
		// A refused or mute peer does not end the rendezvous — the master
		// keeps waiting for compatible workers until its own timeout — but
		// a rank outside 1..slaves, or one announced twice, means the
		// cluster was started wrong, and does.
		var fatal error
		cn, rank, err := AcceptHello(c, func(h Hello) Welcome {
			if h.Rank < 1 || h.Rank > slaves {
				fatal = fmt.Errorf("comm: worker announced invalid rank %d", h.Rank)
				return Welcome{Err: fmt.Sprintf("invalid rank %d (want 1..%d)", h.Rank, slaves)}
			}
			if t.conn(h.Rank) != nil {
				fatal = fmt.Errorf("comm: two workers announced rank %d", h.Rank)
				return Welcome{Err: fmt.Sprintf("rank %d already joined", h.Rank)}
			}
			return Welcome{Member: h.Rank}
		})
		if fatal != nil {
			ln.Close()
			return nil, fatal
		}
		if err != nil {
			refused = err
			continue
		}
		t.mu.Lock()
		t.conns[rank] = cn
		t.mu.Unlock()
		go t.pump(rank, cn)
	}
	return t, nil
}

// connCount returns the live link count (pumps drop failed links, so it
// can shrink during the rendezvous).
func (t *TCPTransport) connCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// conn returns the live link to rank, nil when there is none.
func (t *TCPTransport) conn(rank int) *Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[rank]
}

// DialWorker connects a worker endpoint with the given rank (1-based) to
// the master at addr, retrying until the timeout expires so workers can be
// started before the master.
func DialWorker(addr string, rank, slaves int, timeout time.Duration) (*TCPTransport, error) {
	if rank < 1 || rank > slaves {
		return nil, fmt.Errorf("comm: invalid worker rank %d (1..%d)", rank, slaves)
	}
	cn, _, err := DialHello(addr, Hello{Rank: rank}, timeout)
	if err != nil {
		return nil, err
	}
	t := &TCPTransport{
		rank:  rank,
		size:  slaves + 1,
		in:    make(chan Message, 272),
		done:  make(chan struct{}),
		conns: map[int]*Conn{0: cn},
	}
	go t.pump(0, cn)
	return t, nil
}

// pump reads messages from one connection into the inbox until the
// connection or the transport closes. A failed link is dropped from the
// connection table; on the worker side (whose only link is the master)
// the whole transport closes, so a dead master surfaces as ErrClosed from
// Recv instead of a hang.
func (t *TCPTransport) pump(from int, cn *Conn) {
	for {
		m, err := cn.Recv()
		if err != nil {
			t.mu.Lock()
			if t.conns[from] == cn {
				delete(t.conns, from)
			}
			t.mu.Unlock()
			if t.rank != 0 {
				t.Close()
			}
			return
		}
		m.From = from
		select {
		case t.in <- m:
		case <-t.done:
			return
		}
	}
}

func (t *TCPTransport) Rank() int { return t.rank }
func (t *TCPTransport) Size() int { return t.size }

func (t *TCPTransport) Send(to int, m Message) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	conn := t.conn(to)
	if conn == nil {
		return fmt.Errorf("comm: rank %d has no link to rank %d", t.rank, to)
	}
	m.From = t.rank
	m.To = to
	return conn.Send(m)
}

func (t *TCPTransport) Recv() (Message, error) {
	select {
	case m := <-t.in:
		return m, nil
	case <-t.done:
		select {
		case m := <-t.in:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, c := range t.conns {
			c.Close()
		}
		if t.ln != nil {
			t.ln.Close()
		}
	})
	return nil
}
