package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// acceptOne accepts one connection on ln and runs the accepting side of
// the handshake on it, admitting every compatible hello as member 1; the
// channel carries AcceptHello's error.
func acceptOne(ln net.Listener) <-chan error {
	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		cn, _, err := AcceptHello(c, func(Hello) Welcome { return Welcome{Member: 1} })
		if err == nil {
			cn.Close()
		}
		errc <- err
	}()
	return errc
}

func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// Version skew, direction 1: a worker of another generation (its hello
// carries version 0) dials a current master. The master must refuse the
// join with an error naming both versions, and the worker must be sent
// that reason instead of an opaque decode failure or a bare close.
func TestHandshakeRejectsOldWorker(t *testing.T) {
	ln := listenLocal(t)
	masterErr := acceptOne(ln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn := NewConn(c)
	if err := cn.sendHello(Hello{Rank: 1, Version: 0}); err != nil {
		t.Fatal(err)
	}
	w, err := cn.recvWelcome(5 * time.Second)
	if err != nil {
		t.Fatalf("old worker got no welcome: %v", err)
	}
	bothVersions := func(s string) bool {
		return strings.Contains(s, "version mismatch") && strings.Contains(s, "worker speaks v0") &&
			strings.Contains(s, fmt.Sprintf("master speaks v%d", ProtocolVersion))
	}
	if w.Version != ProtocolVersion || !bothVersions(w.Err) {
		t.Fatalf("worker-side welcome does not diagnose the skew: %+v", w)
	}
	if reason := <-masterErr; reason == nil || !bothVersions(reason.Error()) {
		t.Fatalf("master-side error does not name both versions: %v", reason)
	}
}

// Version skew, direction 2: a current worker dials a master that speaks
// a different (older) protocol version. The welcome's version field lets
// the worker diagnose the skew.
func TestHandshakeRejectsOldMaster(t *testing.T) {
	ln := listenLocal(t)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		cn := NewConn(c)
		if _, err := cn.recvHello(5 * time.Second); err != nil {
			return
		}
		// A master of another generation: answers, but with its own
		// version, and the worker must walk away.
		_ = cn.sendWelcome(Welcome{Version: 0, Member: 1})
	}()

	_, _, err := DialHello(ln.Addr().String(), Hello{Rank: 1}, 5*time.Second)
	if err == nil {
		t.Fatal("worker accepted a master speaking another protocol version")
	}
	if !strings.Contains(err.Error(), "master speaks v0") || !strings.Contains(err.Error(), fmt.Sprintf("worker speaks v%d", ProtocolVersion)) {
		t.Fatalf("worker-side error does not diagnose the skew: %v", err)
	}
}

// The caller's own refusal — here the admission callback's — reaches the
// dialer as text before the close, and AcceptHello reports it too.
func TestAcceptHelloRefusalReachesDialer(t *testing.T) {
	ln := listenLocal(t)
	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		_, member, err := AcceptHello(c, func(h Hello) Welcome {
			return Welcome{Err: "no room for " + h.Name}
		})
		if member != 0 {
			err = fmt.Errorf("refused join granted member %d", member)
		}
		errc <- err
	}()
	_, _, err := DialHello(ln.Addr().String(), Hello{Rank: 1, Name: "w9"}, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "master rejected join: no room for w9") {
		t.Fatalf("dialer saw %v, want the refusal text", err)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "refused join") || !strings.Contains(err.Error(), "no room for w9") {
		t.Fatalf("acceptor reported %v, want the refusal", err)
	}
}

// A protocol-v4 binary opens with a gob-encoded hello. A v5 acceptor
// refuses it on the first byte — no panic, no reflection over the peer's
// bytes, an error that says what the peer probably is — and closes; the
// old worker reads EOF (or a reset, its hello being unread) where it
// waited for a welcome.
func TestAcceptHelloRefusesV4GobHello(t *testing.T) {
	ln := listenLocal(t)
	masterErr := acceptOne(ln)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The v4 Hello, field for field.
	type Hello struct {
		Rank    int
		Version int
		Digest  string
		Fleet   bool
		Name    string
	}
	if err := gob.NewEncoder(c).Encode(Hello{Rank: 1, Version: 4, Name: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := <-masterErr; err == nil || !strings.Contains(err.Error(), "pre-v5 binary") {
		t.Fatalf("acceptor reported %v, want a refusal naming a pre-v5 peer", err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := c.Read(make([]byte, 1))
	if n != 0 || (err != io.EOF && !errors.Is(err, syscall.ECONNRESET)) {
		t.Fatalf("old worker read %d bytes, %v; want the connection closed with nothing sent", n, err)
	}
}

// The handshake frames are the first bytes an unauthenticated peer sends:
// a bodyLen beyond the 4 KiB cap is refused on the header, before a byte of
// the body is read, and inside a body an over-long string field or trailing
// bytes are refused — none of them with an allocation sized by the claim.
func TestHandshakeBounds(t *testing.T) {
	hello, err := appendHelloFrame(nil, Hello{Version: ProtocolVersion, Rank: 2, Name: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	welcome, err := appendWelcomeFrame(nil, Welcome{Version: ProtocolVersion, Member: 2, Err: "no"})
	if err != nil {
		t.Fatal(err)
	}
	withU32 := func(frame []byte, off int, v uint32) []byte {
		out := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	const body = 6   // frame header length
	const terms = 24 // a welcome's three i64 fields, before its string
	welcomeCut := withU32(welcome[:body+6], 2, 6)
	termsCut := withU32(welcome[:body+9+12], 2, 9+12)
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		// The reader below ends with the header, so an implementation that
		// tried to read the claimed body would report EOF, not the limit.
		{"hello bodyLen over cap", withU32(hello, 2, maxHandshakeBody+1)[:body], "exceeds limit 4096"},
		{"welcome bodyLen over cap", withU32(welcome, 2, 1<<31)[:body], "exceeds limit 4096"},
		{"hello name over-long", withU32(hello, body+9, 1<<30), "handshake string 0: length 1073741824 exceeds"},
		{"welcome text over-long", withU32(welcome, body+9+terms, 1<<30), "handshake string 0: length 1073741824 exceeds"},
		{"hello trailing bytes", withU32(append(append([]byte(nil), hello...), 0), 2, uint32(len(hello)-body+1)), "1 trailing bytes after handshake"},
		{"welcome trailing bytes", withU32(append(append([]byte(nil), welcome...), 0, 0), 2, uint32(len(welcome)-body+2)), "2 trailing bytes after handshake"},
		{"hello shorter than a version", []byte{binMagic, tagHello, 2, 0, 0, 0, 5, 0}, "need at least 4"},
		{"welcome cut after the version", welcomeCut, "truncated before id and flags"},
		{"welcome cut inside its terms", termsCut, "handshake field 1 truncated"},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := handshakeFromBytes(tc.frame)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		// An error value and a staging buffer of the bytes present; the
		// claims above run to a gigabyte.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusal allocated %d bytes", tc.name, grew)
		}
	}

	// The sender holds itself to the same cap.
	if _, err := appendHelloFrame(nil, Hello{Name: strings.Repeat("n", maxHandshakeBody)}); err == nil {
		t.Fatal("encoder accepted a hello beyond the handshake cap")
	}
	if _, err := appendWelcomeFrame(nil, Welcome{Err: strings.Repeat("e", maxHandshakeBody)}); err == nil {
		t.Fatal("encoder accepted a welcome beyond the handshake cap")
	}
	// A hello where a welcome is due, and the reverse, are refused by tag.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() { _, _ = a.Write(hello) }()
	if _, err := NewConn(b).recvWelcome(time.Second); err == nil || !strings.Contains(err.Error(), "was expected") {
		t.Fatalf("hello read as a welcome: %v", err)
	}
}

// A fleet worker takes its timing and batch from the welcome: the heartbeat
// period, the miss count and the batch the acceptor grants reach the
// dialer unchanged, a refusal round-trips with its text, and the decoder
// refuses a welcome with any of the three negative, or
// whose miss+1 periods overflow the link bound, since a worker would set
// its clocks by it.
func TestWelcomeCarriesTiming(t *testing.T) {
	granted := Welcome{Member: 4, Heartbeat: 50 * time.Millisecond, HeartbeatMiss: 3, Batch: 2}
	ln := listenLocal(t)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if cn, _, err := AcceptHello(c, func(Hello) Welcome { return granted }); err == nil {
			cn.Close()
		}
	}()
	cn, w, err := DialHello(ln.Addr().String(), Hello{Fleet: true}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cn.Close()
	if granted.Version = ProtocolVersion; w != granted {
		t.Fatalf("dialer got welcome %+v, want %+v", w, granted)
	}

	refusal := Welcome{Version: ProtocolVersion, Err: "fleet shut down"}
	frame, err := appendWelcomeFrame(nil, refusal)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := handshakeFromBytes(frame); err != nil || got != refusal {
		t.Fatalf("refusal round-tripped to %+v, %v; want %+v", got, err, refusal)
	}

	for _, bad := range []struct {
		w    Welcome
		want string
	}{
		{Welcome{Heartbeat: -time.Millisecond, HeartbeatMiss: 3}, "is negative"},
		{Welcome{Heartbeat: time.Millisecond, HeartbeatMiss: -1}, "is negative"},
		{Welcome{Heartbeat: time.Millisecond, Batch: -1}, "is negative"},
		{Welcome{Heartbeat: 1, HeartbeatMiss: math.MaxInt64}, "overflow the link bound"},
		{Welcome{Heartbeat: time.Second, HeartbeatMiss: math.MaxInt64 / int(time.Second)}, "overflow the link bound"},
	} {
		bad.w.Version, bad.w.Member = ProtocolVersion, 1
		frame, err := appendWelcomeFrame(nil, bad.w)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := handshakeFromBytes(frame); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("welcome %+v decoded to %+v, %v; want a refusal: %q", bad.w, got, err, bad.want)
		}
	}
	// The largest miss count whose bound fits is taken as it is.
	edge := Welcome{Version: ProtocolVersion, Member: 1, Heartbeat: time.Second, HeartbeatMiss: math.MaxInt64/int(time.Second) - 1}
	frame, err = appendWelcomeFrame(nil, edge)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := handshakeFromBytes(frame); err != nil || got != edge || edge.linkBound() <= 0 {
		t.Fatalf("welcome %+v decoded to %+v, %v (link bound %v); want it unchanged", edge, got, err, edge.linkBound())
	}
}

// handshakeFromBytes reads one handshake frame from raw bytes the way a
// Conn does — a welcome when the tag byte says so, a hello otherwise.
func handshakeFromBytes(data []byte) (any, error) {
	var buf bytes.Buffer
	if len(data) > 1 && data[1] == tagWelcome {
		if _, err := readFrame(bytes.NewReader(data), &buf, tagWelcome); err != nil {
			return nil, err
		}
		return decodeWelcome(buf.Bytes())
	}
	if _, err := readFrame(bytes.NewReader(data), &buf, tagHello); err != nil {
		return nil, err
	}
	return decodeHello(buf.Bytes())
}

// Regression for half-open connections: a peer that completes the
// handshake and then wedges (sends nothing, reads nothing, never closes)
// must surface as a timeout from Recv within the bound the welcome sets on
// both ends of the link — without it the pump would hang on the dead link
// forever.
func TestReadIdleSurfacesWedgedPeer(t *testing.T) {
	ln := listenLocal(t)
	type res struct {
		cn  *Conn
		err error
	}
	masterc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			masterc <- res{nil, err}
			return
		}
		cn, _, err := AcceptHello(c, func(h Hello) Welcome {
			return Welcome{Member: h.Rank, Heartbeat: 100 * time.Millisecond, HeartbeatMiss: 2}
		})
		masterc <- res{cn, err}
	}()

	// The wedged peer: says hello, reads the welcome, then goes silent
	// without closing.
	peer, _, err := DialHello(ln.Addr().String(), Hello{Rank: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	mr := <-masterc
	if mr.err != nil {
		t.Fatal(mr.err)
	}
	defer mr.cn.Close()

	start := time.Now()
	_, err = mr.cn.Recv()
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Recv on a wedged link = %v, want a timeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("wedged peer surfaced after %v, bound was 300ms", waited)
	}
	// The dialer's end took the same bound from the welcome.
	if _, err = peer.Recv(); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Recv on the dialer's silent link = %v, want a timeout", err)
	}
}

// A worker whose master link dies must get ErrClosed from Recv instead of
// blocking forever (its only link is gone, so the transport closes).
func TestWorkerTransportClosesOnDeadMaster(t *testing.T) {
	addr := "127.0.0.1:39224"
	type res struct {
		tr  *TCPTransport
		err error
	}
	masterc := make(chan res, 1)
	go func() {
		tr, err := listenMaster(addr, 1, 5*time.Second)
		masterc <- res{tr, err}
	}()
	w, err := DialWorker(addr, 1, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mr := <-masterc
	if mr.err != nil {
		t.Fatal(mr.err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var recvErr error
	go func() {
		defer wg.Done()
		_, recvErr = w.Recv()
	}()
	mr.tr.Close() // the master dies

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker Recv hung after master death")
	}
	if !errors.Is(recvErr, ErrClosed) {
		t.Fatalf("worker Recv = %v, want ErrClosed", recvErr)
	}
}
