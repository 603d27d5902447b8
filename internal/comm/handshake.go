package comm

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// ProtocolVersion is the wire protocol generation of this binary. Master
// and workers exchange it in the join handshake and refuse to assemble a
// cluster across versions: before the check, a skewed binary pair failed
// deep inside the run as an opaque gob decode error; now it fails at join
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
// corruption, hence the generation bump.
const ProtocolVersion = 4

// Hello is the first frame on every worker connection: who is joining and
// what problem it believes the cluster is solving.
type Hello struct {
	// Rank is the fixed-mode rank (1..slaves); fleet workers leave it
	// zero and are assigned a member id by the master instead.
	Rank int
	// Version is the sender's ProtocolVersion. A pre-versioning binary
	// decodes to 0 here, which is exactly what makes the skew detectable.
	Version int
	// Digest fingerprints the problem spec (app, size, seed, partition)
	// the worker was started with. Empty means "not checked" for
	// backward compatibility of the fixed-mode tools.
	Digest string
	// Fleet marks a worker joining a fleet (internal/fleet) rather than a
	// fixed-size rendezvous: it carries no digest — per-job specs are
	// verified via the job-spec attach frames instead.
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
// fleet are both built from. Hot task/result messages
// travel as binary frames; the handshake and control messages share a
// persistent gob stream on the same connection (see wire.go for the
// framing and why the two cannot be confused). Writes of whole frames
// are serialized by a mutex; reads are single-consumer.
//
// The reader side funnels through one bufio.Reader that implements
// io.ByteReader: gob then reads from it byte-exactly instead of wrapping
// the connection in its own over-reading buffer, which is what makes it
// safe to interleave gob values and raw frames on one stream.
type Conn struct {
	c   net.Conn
	br  *bufio.Reader
	enc *gob.Encoder
	dec *gob.Decoder
	wmu sync.Mutex

	// readIdle, when positive, bounds how long one Recv may wait for the
	// first byte of the next frame. With periodic heartbeats on the link
	// this turns a silently dead peer (half-open TCP after a crash, a
	// partitioned network) into a timeout error instead of a forever
	// hang.
	readIdle time.Duration
	// writeTimeout, when positive, bounds one Send: a peer that stopped
	// reading eventually fills the TCP buffers, and without a deadline
	// the sender wedges inside the kernel write. After a timed-out Send
	// the gob stream is undefined; treat the connection as dead.
	writeTimeout time.Duration
}

// defaultKeepAlive is the TCP keepalive probe period applied to every
// accepted and dialed connection, so the OS notices a vanished peer even
// on an idle link.
const defaultKeepAlive = 15 * time.Second

// NewConn wraps an established network connection. keepAlive configures
// the TCP keepalive period: 0 applies the 15 s default, negative disables
// probing (useful in tests that fake time).
func NewConn(c net.Conn, keepAlive time.Duration) *Conn {
	if tc, ok := c.(*net.TCPConn); ok && keepAlive >= 0 {
		if keepAlive == 0 {
			keepAlive = defaultKeepAlive
		}
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(keepAlive)
	}
	br := bufio.NewReader(c)
	return &Conn{c: c, br: br, enc: gob.NewEncoder(c), dec: gob.NewDecoder(br)}
}

// SetReadIdle sets the per-Recv idle bound (0 disables). Callers that
// enable it must guarantee periodic traffic (heartbeats) on a healthy
// link, or an idle-but-alive peer will be misdiagnosed as dead.
func (cn *Conn) SetReadIdle(d time.Duration) { cn.readIdle = d }

// SetWriteTimeout sets the per-Send bound (0 disables). A Send that hits
// it leaves the gob stream undefined; the caller must close the
// connection and treat the peer as dead.
func (cn *Conn) SetWriteTimeout(d time.Duration) { cn.writeTimeout = d }

// RemoteAddr returns the peer address.
func (cn *Conn) RemoteAddr() net.Addr { return cn.c.RemoteAddr() }

// Send writes one message frame, honoring the write timeout. Task and
// result messages are encoded with the binary codec into a pooled buffer
// and written in a single call; control messages use the persistent gob
// stream.
func (cn *Conn) Send(m Message) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if cn.writeTimeout > 0 {
		if err := cn.c.SetWriteDeadline(time.Now().Add(cn.writeTimeout)); err != nil {
			return err
		}
	}
	if !binaryKind(m.Kind) {
		return cn.enc.Encode(m)
	}
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	frame, err := appendBinaryFrame((*bufp)[:0], m)
	*bufp = frame[:0]
	if err != nil {
		return err
	}
	_, err = cn.c.Write(frame)
	return err
}

// Recv reads the next message frame, honoring the read-idle bound. One
// peeked byte decides the codec: the binary magic can never begin a gob
// message, so the stream stays self-describing and a peer that falls
// back to gob for any kind is still understood.
func (cn *Conn) Recv() (Message, error) {
	if cn.readIdle > 0 {
		if err := cn.c.SetReadDeadline(time.Now().Add(cn.readIdle)); err != nil {
			return Message{}, err
		}
	}
	first, err := cn.br.Peek(1)
	if err != nil {
		return Message{}, err
	}
	if first[0] == binMagic {
		return readBinaryFrame(cn.br)
	}
	var m Message
	if err := cn.dec.Decode(&m); err != nil {
		return Message{}, err
	}
	return m, nil
}

// Close closes the underlying connection.
func (cn *Conn) Close() error { return cn.c.Close() }

// SendHello / RecvHello / SendWelcome / RecvHello frame the join
// handshake over the same gob stream the messages use.

// SendHello writes the join frame.
func (cn *Conn) SendHello(h Hello) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	return cn.enc.Encode(h)
}

// RecvHello reads the join frame, bounded by timeout so a connected but
// mute peer cannot wedge the accept loop.
func (cn *Conn) RecvHello(timeout time.Duration) (Hello, error) {
	var h Hello
	if timeout > 0 {
		if err := cn.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return h, err
		}
		defer cn.c.SetReadDeadline(time.Time{})
	}
	err := cn.dec.Decode(&h)
	return h, err
}

// SendWelcome writes the master's handshake reply.
func (cn *Conn) SendWelcome(w Welcome) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	return cn.enc.Encode(w)
}

// RecvWelcome reads the master's handshake reply, bounded by timeout.
func (cn *Conn) RecvWelcome(timeout time.Duration) (Welcome, error) {
	var w Welcome
	if timeout > 0 {
		if err := cn.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return w, err
		}
		defer cn.c.SetReadDeadline(time.Time{})
	}
	err := cn.dec.Decode(&w)
	return w, err
}

// Reject sends a refusal welcome and closes the connection; the error
// string reaches the worker before the close.
func (cn *Conn) Reject(reason string) {
	_ = cn.SendWelcome(Welcome{Version: ProtocolVersion, Err: reason})
	cn.c.Close()
}

// CheckHello validates a received Hello against this binary's protocol
// version and the given spec digest (empty digest on either side skips
// the digest check). It returns a refusal reason, or "" when compatible.
func CheckHello(h Hello, digest string) string {
	if h.Version != ProtocolVersion {
		return fmt.Sprintf("protocol version mismatch: worker speaks v%d, master speaks v%d (rebuild both binaries from the same source)", h.Version, ProtocolVersion)
	}
	if digest != "" && h.Digest != "" && h.Digest != digest {
		return fmt.Sprintf("problem spec mismatch: worker built digest %s, master expects %s (check -app/-n/-seed/-proc/-thread flags)", h.Digest, digest)
	}
	return ""
}

// DialHello dials addr (retrying until timeout so workers may start before
// the master), performs the hello/welcome handshake, and returns the live
// connection. It fails with the master's refusal reason, or with a
// version-skew diagnosis when the master speaks a different protocol.
func DialHello(addr string, h Hello, timeout time.Duration) (*Conn, Welcome, error) {
	return dialHelloVersion(addr, h, timeout, ProtocolVersion)
}

// dialHelloVersion is DialHello with the local version injectable, so the
// skew paths are unit-testable from one binary.
func dialHelloVersion(addr string, h Hello, timeout time.Duration, version int) (*Conn, Welcome, error) {
	h.Version = version
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
	cn := NewConn(c, 0)
	if err := cn.SendHello(h); err != nil {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: sending hello: %w", err)
	}
	hsTimeout := time.Until(deadline)
	if hsTimeout < time.Second {
		hsTimeout = time.Second
	}
	w, err := cn.RecvWelcome(hsTimeout)
	if err != nil {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: waiting for master welcome (a pre-v1 master sends none): %w", err)
	}
	if w.Err != "" {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: master rejected join: %s", w.Err)
	}
	if w.Version != version {
		cn.Close()
		return nil, Welcome{}, fmt.Errorf("comm: protocol version mismatch: master speaks v%d, worker speaks v%d (rebuild both binaries from the same source)", w.Version, version)
	}
	return cn, w, nil
}
