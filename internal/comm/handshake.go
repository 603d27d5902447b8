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
// time with both sides naming the two versions.
//
// History: 0 is the pre-versioning protocol (hello carried only a rank and
// the master sent no welcome); 1 added the hello/welcome exchange with
// version and problem-spec digest, heartbeat/leave message kinds, and
// elastic joins; 2 added tagged binary frames for task/result messages
// and the task-batch/result-batch kinds (see wire.go); 3 added the job
// field on binary frames plus the job-spec/job-end kinds and the fleet
// hello flag, so one worker can serve several concurrent jobs of a
// shared fleet; 4 added the keyed data-region encoding (negative leading
// count, content keys and reference records — matrix/codec_keyed.go), so
// a worker already holding a block by content is sent a 44-byte reference
// instead of the block. A v3 worker would reject the negative count as
// corruption, hence the generation bump; 5 took encoding/gob off the wire:
// hello, welcome and the eight control kinds, which rode a gob stream
// interleaved with the binary task/result frames, are frames of the same
// layout (wire.go), the handshake under a 4 KiB cap. The version is the
// first field of a hello or welcome body, so v5 and later tell each other
// apart by number; v4 and earlier opened with gob, which a v5 acceptor
// refuses on the first byte and a v5 dialer sees as a master that closes
// without a welcome; 6 changed no frame but what a spec names: the CLI
// tools build every problem through the job service's kernel table, so
// the same -app/-n/-seed is another input pair than a v5 build generated
// (and the spec digest's tag moved with it), and a v5 rank or elastic
// worker is refused at the handshake instead of computing other inputs; 7
// changed no frame but what a hello's digest is: the job service's JobSpec
// is every tool's one job description, so a rank's digest is that spec's
// digest plus the processor partition where it was the CLIs' own spec,
// and an elastic worker builds each job from its attach
// frame as a fleet worker does. A v6 rank or elastic worker is refused
// with both versions named, not by a misleading spec mismatch; 8 dropped
// the hello's digest string: every worker process is a fleet member,
// which verifies each job's spec by its attach frame, and no master
// compares a rank's flags at the handshake any more. A v7 hello carries
// one string more than a v8 acceptor reads, so the number, not a decode
// error, names the skew.
const ProtocolVersion = 8

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
	// Err is the refusal reason, empty on success.
	Err string
}

// Conn is one message connection: the unit the TCP transport and the
// fleet are both built from. Everything on it — hello, welcome, every
// message kind — is one tagged binary frame (see wire.go for the layout
// and its bounds). Writes of whole frames are serialized by a mutex; reads
// are single-consumer.
type Conn struct {
	c   net.Conn
	br  *bufio.Reader
	wmu sync.Mutex

	// readIdle, when positive, bounds how long one Recv may wait for the
	// next frame. With periodic heartbeats on the link this turns a
	// silently dead peer (half-open TCP after a crash, a partitioned
	// network) into a timeout error instead of a forever hang.
	readIdle time.Duration
	// writeTimeout, when positive, bounds one Send: a peer that stopped
	// reading eventually fills the TCP buffers, and without a deadline
	// the sender wedges inside the kernel write. After a timed-out Send
	// part of a frame may be on the wire; treat the connection as dead.
	writeTimeout time.Duration
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

// SetReadIdle sets the per-Recv idle bound (0 disables). Callers that
// enable it must guarantee periodic traffic (heartbeats) on a healthy
// link, or an idle-but-alive peer will be misdiagnosed as dead.
func (cn *Conn) SetReadIdle(d time.Duration) { cn.readIdle = d }

// SetWriteTimeout sets the per-Send bound (0 disables). A Send that hits
// it may have written part of a frame; the caller must close the
// connection and treat the peer as dead.
func (cn *Conn) SetWriteTimeout(d time.Duration) { cn.writeTimeout = d }

// Send writes one message frame, honoring the write timeout. The frame is
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
	if cn.writeTimeout > 0 {
		if err := cn.c.SetWriteDeadline(time.Now().Add(cn.writeTimeout)); err != nil {
			return err
		}
	}
	_, err := cn.c.Write(frame)
	return err
}

// Recv reads the next message frame, honoring the read-idle bound.
func (cn *Conn) Recv() (Message, error) {
	if cn.readIdle > 0 {
		if err := cn.c.SetReadDeadline(time.Now().Add(cn.readIdle)); err != nil {
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

// checkHello validates a received Hello against this binary's protocol
// version. It returns a refusal reason, or "" when compatible.
func checkHello(h Hello) string {
	if h.Version != ProtocolVersion {
		return fmt.Sprintf("protocol version mismatch: worker speaks v%d, master speaks v%d (rebuild both binaries from the same source)", h.Version, ProtocolVersion)
	}
	return ""
}

// AcceptHello is the accepting side of the join handshake on a fresh
// connection, the counterpart of DialHello: it reads the hello under the
// 10 s bound, refuses a peer of another protocol version, and otherwise
// asks admit for the caller's own decision — the member id to grant
// (never 0), or a refusal. A refused peer is sent a welcome carrying the
// reason before the close, so the refusal is diagnosed on both sides; a
// peer that does not open with a frame at all (a pre-v5 binary, whose
// hello was a gob stream, or a stranger) could not read one and is just
// closed. On any error the connection is closed, and member is non-zero
// only when admit had already granted it — the welcome could not be
// written, and the id is the caller's to take back.
func AcceptHello(c net.Conn, admit func(Hello) (member int, refusal string)) (cn *Conn, member int, err error) {
	cn = NewConn(c)
	hello, err := cn.recvHello(helloTimeout)
	if err != nil {
		cn.Close()
		return nil, 0, fmt.Errorf("comm: reading hello from %s: %w", c.RemoteAddr(), err)
	}
	refusal := checkHello(hello)
	if refusal == "" {
		member, refusal = admit(hello)
	}
	if refusal != "" {
		_ = cn.sendWelcome(Welcome{Version: ProtocolVersion, Err: refusal})
		cn.Close()
		return nil, 0, fmt.Errorf("comm: refused join from %s: %s", c.RemoteAddr(), refusal)
	}
	if err := cn.sendWelcome(Welcome{Version: ProtocolVersion, Member: member}); err != nil {
		cn.Close()
		return nil, member, fmt.Errorf("comm: sending welcome to %s: %w", c.RemoteAddr(), err)
	}
	return cn, member, nil
}

// DialHello dials addr (retrying until timeout so workers may start before
// the master), performs the hello/welcome handshake, and returns the live
// connection. It fails with the master's refusal reason, or with a
// version-skew diagnosis when the master speaks a different protocol.
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
	hsTimeout := time.Until(deadline)
	if hsTimeout < time.Second {
		hsTimeout = time.Second
	}
	w, err := cn.recvWelcome(hsTimeout)
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
	return cn, w, nil
}
