package comm

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"
)

// FuzzWireCodec feeds arbitrary bytes to the connection's receive path —
// the one frame reader every message kind goes through — and checks the
// codec's safety contract:
//
//   - a truncated or corrupted frame returns an error, never a panic,
//     an over-read, or an input-sized allocation;
//   - any input that decodes successfully re-encodes to a frame that
//     decodes to the same message (the codec is a bijection on its
//     valid range).
//
// The corpus seeds cover the shapes the protocol actually produces: every
// kind, zero-length blocks, max-size batches and hand-truncated frames —
// and what it no longer speaks: the gob envelopes protocol v4 put control
// messages in and the job frames under protocol v9's tags, whole, halved
// and header only, all of which must be refused.
func FuzzWireCodec(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := appendBinaryFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if len(frame) > 8 {
			f.Add(frame[:len(frame)/2]) // truncated frame
			f.Add(frame[:7])            // header only
		}
	}
	// A max-batch frame: many empty entries, the widest legal nbatch for
	// its size.
	wide := Message{Kind: KindTaskBatch, Batch: make([]TaskEntry, 4096)}
	for i := range wide.Batch {
		wide.Batch[i] = TaskEntry{Vertex: int32(i), Attempt: 1}
	}
	if frame, err := appendBinaryFrame(nil, wide); err == nil {
		f.Add(frame)
	}
	for _, env := range gobEnvelopes(f) {
		f.Add(env)
	}
	for _, frame := range v9JobFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:6])
	}
	f.Add([]byte{binMagic})                                 // bare magic
	f.Add([]byte{binMagic, byte(KindTask), 255, 255, 0, 0}) // huge bodyLen
	f.Add([]byte{binMagic, 0, 0, 0, 0, 0})                  // tag below the kinds
	f.Add([]byte{binMagic, byte(KindJobEnd) + 1, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readBinaryFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		// Round trip: what decoded must re-encode and decode identically.
		frame, err := appendBinaryFrame(nil, m)
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v (%+v)", err, m)
		}
		again, err := readBinaryFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v (%+v)", err, m)
		}
		if !equalMessages(m, again) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, m)
		}
	})
}

// gobEnvelopes are control and hot messages as a protocol-v4 Conn put them
// on the wire when it fell back to encoding/gob.
func gobEnvelopes(tb testing.TB) [][]byte {
	var out [][]byte
	for _, m := range []Message{{Kind: KindIdle}, {Kind: KindHeartbeat}, {Kind: KindTask, Vertex: 3, Attempt: 1, Payload: []byte("gob")}} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// No gob envelope is a frame: the v4 fallback path is gone, not dormant.
func TestGobEnvelopesRefused(t *testing.T) {
	for i, env := range gobEnvelopes(t) {
		if m, err := readBinaryFrame(bytes.NewReader(env)); err == nil {
			t.Fatalf("gob envelope %d decoded to %+v", i, m)
		}
	}
}

// v9JobFrames are a job-spec and a job-end message as a protocol-v9 Conn
// framed them: the body is unchanged, but the tag is two higher, since v10
// dropped the user and hunger kinds below them, and lies past the kinds.
func v9JobFrames(tb testing.TB) [][]byte {
	var out [][]byte
	for _, m := range []Message{
		{Kind: KindJobSpec, To: 1, Job: 2, Payload: []byte(`{"job":2}`)},
		{Kind: KindJobEnd, To: 1, Job: 2},
	} {
		frame, err := appendBinaryFrame(nil, m)
		if err != nil {
			tb.Fatal(err)
		}
		frame[1] += 2
		out = append(out, frame)
	}
	return out
}

// A v9 job frame is refused on its tag rather than read as some other kind.
func TestV9JobFramesRefused(t *testing.T) {
	for i, frame := range v9JobFrames(t) {
		if m, err := readBinaryFrame(bytes.NewReader(frame)); err == nil {
			t.Fatalf("v9 job frame %d decoded to %+v", i, m)
		}
	}
}

// FuzzHandshake feeds arbitrary bytes to the hello and welcome decoders
// through the frame reader, as the first bytes of an unauthenticated peer
// arrive: accept or refuse, never panic, and whatever decodes re-encodes
// to a frame that decodes to the same value.
func FuzzHandshake(f *testing.F) {
	for _, h := range []Hello{
		{Version: ProtocolVersion, Rank: 1, Name: "r1"},
		{Version: ProtocolVersion, Fleet: true, Name: "w0"},
		{Version: ProtocolVersion},
		{Version: ProtocolVersion + 1},
		{},
	} {
		frame, err := appendHelloFrame(nil, h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(frame, 0))
	}
	for _, w := range []Welcome{
		{Version: ProtocolVersion, Member: 3, Heartbeat: 250 * time.Millisecond, HeartbeatMiss: 3, Batch: 4},
		{Version: ProtocolVersion, Member: 3, Heartbeat: 50 * time.Millisecond, HeartbeatMiss: 1},
		{Version: ProtocolVersion, Member: 2, Heartbeat: -time.Second, HeartbeatMiss: -1, Batch: -1}, // refused
		{Version: ProtocolVersion, Member: 2, Heartbeat: time.Second, HeartbeatMiss: math.MaxInt64},  // refused: the bound overflows
		{Version: ProtocolVersion, Err: "fleet shut down"},
		{Version: 0, Member: 1},
	} {
		frame, err := appendWelcomeFrame(nil, w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	for _, env := range gobEnvelopes(f) {
		f.Add(env)
	}
	for _, frame := range v9JobFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:6])
	}
	f.Add([]byte{binMagic, tagHello, 1, 16, 0, 0})   // bodyLen just over the cap
	f.Add([]byte{binMagic, tagWelcome, 0, 0, 0, 0})  // empty body
	f.Add([]byte{binMagic, byte(KindIdle), 0, 0, 0}) // a message header, cut

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := handshakeFromBytes(data)
		if err != nil {
			return
		}
		var frame []byte
		switch v := v.(type) {
		case Hello:
			frame, err = appendHelloFrame(nil, v)
		case Welcome:
			frame, err = appendWelcomeFrame(nil, v)
		}
		if err != nil {
			t.Fatalf("decoded %+v fails to re-encode: %v", v, err)
		}
		again, err := handshakeFromBytes(frame)
		if err != nil || again != v {
			t.Fatalf("round trip diverged: %+v, %v; want %+v", again, err, v)
		}
	})
}
