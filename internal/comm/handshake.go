package comm

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"
)

// ProtocolVersion is the wire protocol generation of this binary. Master
// and workers exchange it in the join handshake and refuse to assemble a
// cluster across versions: before the check, a skewed binary pair failed
// deep inside the run as an opaque decode error; now it fails at join
// time with both sides naming the two versions. docs/CLUSTER.md (Join
// handshake) lists what each generation changed, from 0, which sent no
// welcome, to 9, whose welcome carried the fleet's heartbeat period, miss
// count, hunger delay and batch, where a worker had restated them as
// options that had to match the master's, and 10, which dropped the
// hunger delay from the welcome and the hunger and user kinds from the
// wire: the master reads a member's hunger off its empty draw.
const ProtocolVersion = 10

// Hello is the first frame on every worker connection: who is joining and
// what problem it believes the cluster is solving.
type Hello struct {
	// Rank is the rank of a fixed-size rendezvous (ListenMasterOn,
	// 1..slaves); fleet workers leave it zero and are assigned a member id
	// by the master instead.
	Rank int
	// Version is the sender's ProtocolVersion. A hello of another
	// generation decodes to its version and nothing else.
	Version int
	// Fleet marks a worker joining a fleet (internal/fleet) rather than a
	// fixed-size rendezvous — every easyhps-worker, for easyhps-serve
	// -fleet and easyhps-launch alike. Each job's spec arrives in its
	// attach frame, which the worker verifies.
	Fleet bool
	// Name optionally labels the member in logs and metrics.
	Name string
}

// Welcome is the master's reply to a Hello. A non-empty Err means the join
// was refused and the connection is about to close.
type Welcome struct {
	// Version is the master's ProtocolVersion, so a too-new worker can
	// also diagnose the skew on its side.
	Version int
	// Member is the identity granted to the worker: its rank in fixed
	// mode, its assigned member id in a fleet.
	Member int
	// The master's terms, which a fleet worker runs by: the beacon period,
	// how many silent periods declare a member dead and the results' flush
	// bound.
	Heartbeat     time.Duration
	HeartbeatMiss int
	Batch         int
	// Err is the refusal reason, empty on success.
	Err string
}

// linkBound is how long either end of a link waits on the other, to read
// or write one frame, before declaring it dead: one period more than the
// master's sweep allows a silent member. Zero leaves the link unbounded.
func (w Welcome) linkBound() time.Duration { return time.Duration(w.HeartbeatMiss+1) * w.Heartbeat }

// Conn is one message connection: the unit the TCP transport and the
// fleet are both built from. Everything on it — hello, welcome, every
// message kind — is one tagged binary frame (see wire.go for the layout
// and its bounds). Writes of whole frames are serialized by a mutex; reads
// are single-consumer.
type Conn struct {
	c   net.Conn
	br  *bufio.Reader
	wmu sync.Mutex

	// bound, when positive, bounds one Recv and one Send (the handshake's
	// Welcome.linkBound): with heartbeats on the link a silently dead peer
	// — half-open TCP, a partition, a peer that stopped reading — becomes a
	// timeout error, not a hang. After a timed-out Send part of a frame may
	// be on the wire; treat the connection as dead.
	bound time.Duration
}

// keepAlive is the TCP keepalive probe period applied to every accepted
// and dialed connection, so the OS notices a vanished peer even on an
// idle link.
const keepAlive = 15 * time.Second

// helloTimeout bounds how long an accepted connection may take to say
// hello, so a connected but mute peer cannot hold an accept path.
const helloTimeout = 10 * time.Second

// NewConn wraps an established network connection, turning TCP keepalive
// on when it is a TCP socket.
func NewConn(c net.Conn) *Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(keepAlive)
	}
	return &Conn{c: c, br: bufio.NewReader(c)}
}

// Send writes one message frame, honoring the link's bound. The frame is
// encoded into a pooled buffer and written in a single call.
func (cn *Conn) Send(m Message) error {
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	frame, err := appendBinaryFrame((*bufp)[:0], m)
	*bufp = frame[:0]
	if err != nil {
		return err
	}
	return cn.write(frame)
}

// write puts one whole frame on the socket under the write mutex.
func (cn *Conn) write(frame []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if cn.bound > 0 {
		if err := cn.c.SetWriteDeadline(time.Now().Add(cn.bound)); err != nil {
			return err
		}
	}
	_, err := cn.c.Write(frame)
	return err
}

// Recv reads the next message frame, honoring the link's bound.
func (cn *Conn) Recv() (Message, error) {
	if cn.bound > 0 {
		if err := cn.c.SetReadDeadline(time.Now().Add(cn.bound)); err != nil {
			return Message{}, err
		}
	}
	return readBinaryFrame(cn.br)
}

// Close closes the underlying connection.
func (cn *Conn) Close() error { return cn.c.Close() }

// sendHello writes the join frame, sendWelcome the master's reply.
func (cn *Conn) sendHello(h Hello) error     { return cn.writeHandshake(appendHelloFrame(nil, h)) }
func (cn *Conn) sendWelcome(w Welcome) error { return cn.writeHandshake(appendWelcomeFrame(nil, w)) }

func (cn *Conn) writeHandshake(frame []byte, err error) error {
	if err != nil {
		return err
	}
	return cn.write(frame)
}

// recvHello reads the join frame, recvWelcome the master's reply, each
// bounded by timeout so a connected but mute peer cannot wedge the caller.
func (cn *Conn) recvHello(timeout time.Duration) (Hello, error) {
	body, err := cn.readHandshake(tagHello, timeout)
	if err != nil {
		return Hello{}, err
	}
	return decodeHello(body)
}

func (cn *Conn) recvWelcome(timeout time.Duration) (Welcome, error) {
	body, err := cn.readHandshake(tagWelcome, timeout)
	if err != nil {
		return Welcome{}, err
	}
	return decodeWelcome(body)
}

func (cn *Conn) readHandshake(want byte, timeout time.Duration) ([]byte, error) {
	if err := cn.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	defer cn.c.SetReadDeadline(time.Time{})
	var buf bytes.Buffer
	_, err := readFrame(cn.br, &buf, want)
	return buf.Bytes(), err
}

// AcceptHello is the accepting side of the join handshake on a fresh
// connection, the counterpart of DialHello: it reads the hello under the
// 10 s bound, refuses a peer of another protocol version, and otherwise
// asks admit for the caller's own decision — the welcome to send: the
// member id to grant (never 0) with the timing that bounds the link, or a
// refusal in Err. A refused peer is sent a welcome carrying the reason
// before the close, so the refusal is diagnosed on both sides; a peer that
// does not open with a frame at all (a pre-v5 binary, whose hello was a
// gob stream, or a stranger) could not read one and is just closed. On any
// error the connection is closed, and member is non-zero only when admit
// had already granted it — the welcome could not be written, and the id
// is the caller's to take back.
func AcceptHello(c net.Conn, admit func(Hello) Welcome) (cn *Conn, member int, err error) {
	cn = NewConn(c)
	hello, err := cn.recvHello(helloTimeout)
	if err != nil {
		cn.Close()
		return nil, 0, fmt.Errorf("comm: reading hello from %s: %w", c.RemoteAddr(), err)
	}
	w := Welcome{Err: fmt.Sprintf("protocol version mismatch: worker speaks v%d, master speaks v%d (rebuild both binaries from the same source)", hello.Version, ProtocolVersion)}
	if hello.Version == ProtocolVersion {
		w = admit(hello)
	}
	if w.Err != "" {
		_ = cn.sendWelcome(Welcome{Version: ProtocolVersion, Err: w.Err})
		cn.Close()
		return nil, 0, fmt.Errorf("comm: refused join from %s: %s", c.RemoteAddr(), w.Err)
	}
	w.Version = ProtocolVersion
	if err := cn.sendWelcome(w); err != nil {
		cn.Close()
		return nil, w.Member, fmt.Errorf("comm: sending welcome to %s: %w", c.RemoteAddr(), err)
	}
	cn.bound = w.linkBound()
	return cn, w.Member, nil
}

// DialHello dials addr (retrying until timeout so workers may start before
// the master), performs the hello/welcome handshake, and returns the live
// connection, bounded as the welcome says. It fails with the master's
// refusal reason, or with a version-skew diagnosis when the master speaks
// a different protocol.
func DialHello(addr string, h Hello, timeout time.Duration) (*Conn, Welcome, error) {
	h.Version = ProtocolVersion
	var c net.Conn
	var err error
	deadline := time.Now().Add(timeout)
	for {
		c, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, Welcome{}, fmt.Errorf("comm: dialing master %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	cn := NewConn(c)
	if err := cn.sendHello(h); err != nil {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: sending hello: %w", err)
	}
	w, err := cn.recvWelcome(max(time.Until(deadline), time.Second))
	if err != nil {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: waiting for master welcome (a pre-v5 master cannot read this hello and closes without one): %w", err)
	}
	if w.Err != "" {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: master rejected join: %s", w.Err)
	}
	if w.Version != ProtocolVersion {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: protocol version mismatch: master speaks v%d, worker speaks v%d (rebuild both binaries from the same source)", w.Version, ProtocolVersion)
	}
	cn.bound = w.linkBound()
	return cn, w, nil
}
