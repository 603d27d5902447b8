package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// The one frame format.
//
// Everything a Conn writes or reads — the hello and welcome of the join
// handshake and every message kind, control and task alike — is one
// tagged, length-prefixed frame. The runtime's traffic is bimodal: a
// handful of tiny control messages (idle, end, heartbeat, leave) and a
// torrent of task/result messages whose payloads are already
// binary-encoded matrix blocks; one layout with a slot for every Message
// field serves both, and nothing on the stream is parsed by reflection.
//
// Frame layout (all integers little-endian):
//
//	magic     u8   0xE5
//	tag       u8   a comm.Kind (1..10), tagHello or tagWelcome; a frame
//	               of any other tag, a handshake frame where a message
//	               is due and the reverse are refused on the header
//	bodyLen   u32  length of the body that follows, at most
//	               maxFrameBody for a message and maxHandshakeBody for a
//	               hello or welcome, checked before the body is read
//
// Message body:
//
//	from      i32
//	to        i32
//	vertex    i32
//	attempt   i32
//	job       i32  shared-fleet job id (0 outside fleet mode)
//	flags     u8   bit0 = More
//	payLen    u32  top-level payload length, then payload bytes
//	nbatch    u32  batch entry count
//	entries   nbatch × { vertex i32, attempt i32, len u32, payload }
//
// Hello and welcome body:
//
//	version   u32  the sender's ProtocolVersion; a receiver of another
//	               generation reads no further
//	id        i32  hello: the rank; welcome: the member id granted
//	flags     u8   hello: bit0 = Fleet; welcome: 0
//	terms     welcome only: 3 × i64, none negative — the heartbeat period
//	               (ns), the miss count and the batch; miss+1 periods fit
//	               an i64
//	strings   each a u32 length, then bytes — hello: the name;
//	               welcome: the refusal text (empty on success)
//
// Every length field is validated against the bytes actually present
// before any allocation proportional to it, and a body must be consumed
// exactly, so a truncated or corrupted frame yields an error — never a
// panic, an over-read, or an attacker-sized allocation.

const (
	// binMagic opens every frame. A peer whose first byte is anything
	// else — a protocol-v4 binary, whose handshake was a gob stream, or
	// something that is not an EasyHPS peer at all — is refused on it.
	binMagic = 0xE5

	// tagHello and tagWelcome tag the two handshake frames. They sit
	// outside the comm.Kind range: a handshake frame is never a Message.
	tagHello   = 0xF0
	tagWelcome = 0xF1

	// maxFrameBody bounds one message body (128 MiB). The largest
	// legitimate frames are max-size task batches of matrix blocks,
	// comfortably below this; anything bigger is treated as stream
	// corruption rather than trusted as an allocation hint.
	maxFrameBody = 1 << 27

	// maxHandshakeBody bounds a hello or welcome body (4 KiB): these are
	// the first bytes an unauthenticated peer sends, and a member name
	// and a refusal sentence fit many times over.
	maxHandshakeBody = 4 << 10

	// binFixedHeader is the fixed part of a message body: from, to,
	// vertex, attempt, job (5×i32), flags (u8), payLen (u32), nbatch
	// (u32).
	binFixedHeader = 4*5 + 1 + 4 + 4

	// binEntryHeader is the fixed part of one batch entry: vertex,
	// attempt (2×i32) and the payload length (u32).
	binEntryHeader = 4 + 4 + 4
)

// frameBufPool recycles encode buffers: one Send encodes the whole frame
// into a pooled buffer and writes it with a single Write call, so the
// hot path allocates nothing once the pool is warm.
var frameBufPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// readBufPool recycles decode staging buffers. Bodies are copied out of
// the staging buffer during parsing (payload slices must outlive it), so
// the buffer returns to the pool at the end of every Recv.
var readBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// appendBinaryFrame appends the frame for m to dst and returns the
// extended slice.
func appendBinaryFrame(dst []byte, m Message) ([]byte, error) {
	body := binFixedHeader + len(m.Payload) + len(m.Batch)*binEntryHeader
	for _, e := range m.Batch {
		body += len(e.Payload)
	}
	if body > maxFrameBody {
		return dst, fmt.Errorf("comm: frame body %d exceeds limit %d", body, maxFrameBody)
	}
	var flags byte
	if m.More {
		flags |= 1
	}
	dst = append(dst, binMagic, byte(m.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.To))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Vertex))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Attempt))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Job))
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Payload)))
	dst = append(dst, m.Payload...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Batch)))
	for _, e := range m.Batch {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Vertex))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Attempt))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Payload)))
		dst = append(dst, e.Payload...)
	}
	return dst, nil
}

// decodeBinaryBody parses one frame body into a Message. Payload bytes
// are copied out of body, so the caller may recycle it immediately.
func decodeBinaryBody(kind Kind, body []byte) (Message, error) {
	if len(body) < binFixedHeader {
		return Message{}, fmt.Errorf("comm: frame body %d bytes, need at least %d", len(body), binFixedHeader)
	}
	m := Message{
		Kind:    kind,
		From:    int(int32(binary.LittleEndian.Uint32(body[0:]))),
		To:      int(int32(binary.LittleEndian.Uint32(body[4:]))),
		Vertex:  int32(binary.LittleEndian.Uint32(body[8:])),
		Attempt: int32(binary.LittleEndian.Uint32(body[12:])),
		Job:     int32(binary.LittleEndian.Uint32(body[16:])),
		More:    body[20]&1 != 0,
	}
	rest := body[21:]
	var payload []byte
	var err error
	if payload, rest, err = cutPayload(rest); err != nil {
		return Message{}, fmt.Errorf("comm: frame payload: %w", err)
	}
	m.Payload = payload
	if len(rest) < 4 {
		return Message{}, fmt.Errorf("comm: frame truncated before batch count")
	}
	nbatch := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	// Each entry occupies at least its fixed header, so a corrupt count
	// is rejected before it sizes an allocation.
	if uint64(nbatch)*binEntryHeader > uint64(len(rest)) {
		return Message{}, fmt.Errorf("comm: batch count %d exceeds frame body", nbatch)
	}
	if nbatch > 0 {
		m.Batch = make([]TaskEntry, nbatch)
		for i := range m.Batch {
			// The upfront count check bounds the sum of entry headers, but
			// an oversized earlier payload can still eat into this entry's
			// share, so the header must be re-checked per entry.
			if len(rest) < 8 {
				return Message{}, fmt.Errorf("comm: batch entry %d: truncated header (%d bytes)", i, len(rest))
			}
			m.Batch[i].Vertex = int32(binary.LittleEndian.Uint32(rest[0:]))
			m.Batch[i].Attempt = int32(binary.LittleEndian.Uint32(rest[4:]))
			rest = rest[8:]
			if m.Batch[i].Payload, rest, err = cutPayload(rest); err != nil {
				return Message{}, fmt.Errorf("comm: batch entry %d: %w", i, err)
			}
		}
	}
	if len(rest) != 0 {
		return Message{}, fmt.Errorf("comm: %d trailing bytes after frame", len(rest))
	}
	return m, nil
}

// cutBytes reads a u32-prefixed byte string from b, returning it (still
// aliasing b) and the remainder. The length is checked against the bytes
// present.
func cutBytes(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, b, fmt.Errorf("truncated length prefix (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return nil, b, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(b))
	}
	return b[:n], b[n:], nil
}

// cutPayload is cutBytes with the field copied out of b, so the payload
// outlives the staging buffer; the copy is allocated only after the length
// check.
func cutPayload(b []byte) (payload, rest []byte, err error) {
	field, rest, err := cutBytes(b)
	if err != nil || len(field) == 0 {
		return nil, rest, err
	}
	return append([]byte(nil), field...), rest, nil
}

// appendHandshakeFrame appends a hello or welcome frame, refusing a body
// beyond maxHandshakeBody: what this side would not read it does not
// send.
func appendHandshakeFrame(dst []byte, tag byte, version, id int, flags byte, nums []int64, strs ...string) ([]byte, error) {
	start := len(dst)
	dst = append(dst, binMagic, tag, 0, 0, 0, 0) // bodyLen filled in below
	dst = binary.LittleEndian.AppendUint32(dst, uint32(version))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	dst = append(dst, flags)
	for _, n := range nums {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	}
	for _, s := range strs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	body := len(dst) - start - 6
	if body > maxHandshakeBody {
		return dst[:start], fmt.Errorf("comm: handshake body %d exceeds limit %d", body, maxHandshakeBody)
	}
	binary.LittleEndian.PutUint32(dst[start+2:], uint32(body))
	return dst, nil
}

// decodeHandshake parses a hello or welcome body that carries exactly
// len(nums) i64 fields, read into nums, and len(strs) strings. The body is
// laid out as this generation lays it out only when the version is this
// binary's, so for any other it returns the version alone and leaves the
// refusal — which names both versions — to AcceptHello and DialHello.
func decodeHandshake(body []byte, nums []int64, strs ...*string) (version, id int, flags byte, err error) {
	if len(body) < 4 {
		return 0, 0, 0, fmt.Errorf("comm: handshake body %d bytes, need at least 4", len(body))
	}
	version = int(int32(binary.LittleEndian.Uint32(body)))
	if version != ProtocolVersion {
		return version, 0, 0, nil
	}
	if len(body) < 9 {
		return 0, 0, 0, fmt.Errorf("comm: handshake body truncated before id and flags")
	}
	id, flags = int(int32(binary.LittleEndian.Uint32(body[4:]))), body[8]
	rest := body[9:]
	for i := range nums {
		if len(rest) < 8 {
			return 0, 0, 0, fmt.Errorf("comm: handshake field %d truncated (%d bytes)", i, len(rest))
		}
		nums[i], rest = int64(binary.LittleEndian.Uint64(rest)), rest[8:]
	}
	for i, s := range strs {
		var field []byte
		if field, rest, err = cutBytes(rest); err != nil {
			return 0, 0, 0, fmt.Errorf("comm: handshake string %d: %w", i, err)
		}
		*s = string(field)
	}
	if len(rest) != 0 {
		return 0, 0, 0, fmt.Errorf("comm: %d trailing bytes after handshake", len(rest))
	}
	return version, id, flags, nil
}

func appendHelloFrame(dst []byte, h Hello) ([]byte, error) {
	var flags byte
	if h.Fleet {
		flags |= 1
	}
	return appendHandshakeFrame(dst, tagHello, h.Version, h.Rank, flags, nil, h.Name)
}

func decodeHello(body []byte) (h Hello, err error) {
	var flags byte
	if h.Version, h.Rank, flags, err = decodeHandshake(body, nil, &h.Name); err != nil {
		return Hello{}, err
	}
	h.Fleet = flags&1 != 0
	return h, nil
}

func appendWelcomeFrame(dst []byte, w Welcome) ([]byte, error) {
	terms := []int64{int64(w.Heartbeat), int64(w.HeartbeatMiss), int64(w.Batch)}
	return appendHandshakeFrame(dst, tagWelcome, w.Version, w.Member, 0, terms, w.Err)
}

func decodeWelcome(body []byte) (w Welcome, err error) {
	var t [3]int64
	if w.Version, w.Member, _, err = decodeHandshake(body, t[:], &w.Err); err != nil {
		return Welcome{}, err
	}
	switch { // a worker sets its clocks and link bound by these terms
	case t[0] < 0 || t[1] < 0 || t[2] < 0:
		return Welcome{}, fmt.Errorf("comm: welcome terms %v: a period, miss count or batch is negative", t)
	case t[0] > 0 && t[1] >= math.MaxInt64/t[0]:
		return Welcome{}, fmt.Errorf("comm: welcome terms %v: %d+1 periods of %v overflow the link bound", t, t[1], time.Duration(t[0]))
	}
	w.Heartbeat, w.HeartbeatMiss, w.Batch = time.Duration(t[0]), int(t[1]), int(t[2])
	return w, nil
}

// readFrame reads one frame from r: the header, checked before a byte of
// the body is read — the magic, the tag (want names the handshake frame
// due at this point of the stream, 0 when a message of any kind is) and
// bodyLen within the cap of that class — then the body into buf. The
// staging buffer grows with the bytes that actually arrive (io.CopyN, not
// a bodyLen-sized make), so a corrupt length on a short stream fails
// without ballooning memory.
func readFrame(r io.Reader, buf *bytes.Buffer, want byte) (tag byte, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	if hdr[0] != binMagic {
		return 0, fmt.Errorf("comm: frame opens with %#x, not the magic %#x: the peer is a pre-v5 binary or not an EasyHPS peer", hdr[0], binMagic)
	}
	tag = hdr[1]
	limit := uint32(maxFrameBody)
	switch {
	case want != 0 && tag != want:
		return 0, fmt.Errorf("comm: frame tagged %#x where the handshake frame %#x was expected", tag, want)
	case want != 0:
		limit = maxHandshakeBody
	case Kind(tag) < KindIdle || Kind(tag) > KindJobEnd:
		return 0, fmt.Errorf("comm: frame tag %#x is not a message kind", tag)
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[2:])
	if bodyLen > limit {
		return 0, fmt.Errorf("comm: frame body %d exceeds limit %d", bodyLen, limit)
	}
	buf.Reset()
	if _, err := io.CopyN(buf, r, int64(bodyLen)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("comm: reading frame body: %w", err)
	}
	return tag, nil
}

// readBinaryFrame reads one message frame from r.
func readBinaryFrame(r io.Reader) (Message, error) {
	buf := readBufPool.Get().(*bytes.Buffer)
	defer readBufPool.Put(buf)
	tag, err := readFrame(r, buf, 0)
	if err != nil {
		return Message{}, err
	}
	return decodeBinaryBody(Kind(tag), buf.Bytes())
}
