package comm

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sampleMessages covers the codec's shapes: the six control kinds bare
// and with the fields the runtime sets on them, zero-length payloads,
// single-vertex hot messages, batches with empty and non-empty entries,
// and the More flag.
func sampleMessages() []Message {
	return []Message{
		{Kind: KindIdle, From: 3},
		{Kind: KindEnd, To: 2},
		{Kind: KindHeartbeat},
		{Kind: KindLeave, From: 2},
		{Kind: KindJobSpec, To: 1, Job: 2, Payload: []byte(`{"job":2}`)},
		{Kind: KindJobEnd, To: 1, Job: 2},
		{Kind: KindTask, From: 0, To: 3, Vertex: 7, Attempt: 1, Payload: []byte("block")},
		{Kind: KindTask, To: 2, Vertex: 5, Attempt: 2, Job: 3, Payload: []byte("fleet")},
		{Kind: KindTask, Vertex: 0, Attempt: 1, Payload: nil}, // zero-length block region
		{Kind: KindResult, From: 2, Vertex: 9, Attempt: 4, Payload: []byte{0, 0, 0, 0}},
		{Kind: KindResult, Vertex: 1, Attempt: 1, Payload: []byte{1}, More: true},
		{Kind: KindTaskBatch, To: 1, Batch: []TaskEntry{
			{Vertex: 1, Attempt: 1, Payload: []byte("a")},
			{Vertex: 2, Attempt: 3, Payload: nil},
			{Vertex: 3, Attempt: 1, Payload: bytes.Repeat([]byte{0xAB}, 1024)},
		}},
		{Kind: KindResultBatch, From: 5, More: true, Batch: []TaskEntry{
			{Vertex: 40, Attempt: 2, Payload: []byte("out")},
		}},
		{Kind: KindResultBatch, Batch: []TaskEntry{}},
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	for _, want := range sampleMessages() {
		frame, err := appendBinaryFrame(nil, want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		got, err := readBinaryFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if !equalMessages(got, want) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

// equalMessages compares messages up to nil-vs-empty payload slices (the
// codec does not distinguish them; neither does any consumer).
func equalMessages(a, b Message) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To ||
		a.Vertex != b.Vertex || a.Attempt != b.Attempt || a.Job != b.Job || a.More != b.More {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) || len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if a.Batch[i].Vertex != b.Batch[i].Vertex ||
			a.Batch[i].Attempt != b.Batch[i].Attempt ||
			!bytes.Equal(a.Batch[i].Payload, b.Batch[i].Payload) {
			return false
		}
	}
	return true
}

// Every truncation of a valid frame must fail cleanly — no panic, no
// spurious success.
func TestBinaryFrameTruncations(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := appendBinaryFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := readBinaryFrame(bytes.NewReader(frame[:cut])); err == nil {
				t.Fatalf("%v: truncation at %d/%d decoded successfully", m.Kind, cut, len(frame))
			}
		}
	}
}

// Corrupted length fields must be rejected by bounds checks, not trusted
// as allocation sizes.
func TestBinaryFrameCorruptLengths(t *testing.T) {
	m := Message{Kind: KindTaskBatch, Batch: []TaskEntry{{Vertex: 1, Attempt: 1, Payload: []byte("abc")}}}
	frame, err := appendBinaryFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}

	huge := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(huge[2:], maxFrameBody+1) // bodyLen beyond limit
	if _, err := readBinaryFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized bodyLen accepted")
	}

	// Corrupt the batch count to a value the body cannot hold.
	bad := append([]byte(nil), frame...)
	// body starts at 6; nbatch sits after fixed header minus its own u32.
	off := 6 + binFixedHeader - 4
	binary.LittleEndian.PutUint32(bad[off:], 1<<31)
	if _, err := readBinaryFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("oversized batch count accepted")
	}

	// Oversized frame on the encode side must refuse, not wrap.
	big := Message{Kind: KindTask, Payload: make([]byte, maxFrameBody)}
	if _, err := appendBinaryFrame(nil, big); err == nil {
		t.Fatal("encoder accepted a frame beyond maxFrameBody")
	}
}

// Where a message is due, a frame of every kind the protocol has is read
// and one of any other tag — a handshake frame included — is refused on
// the header.
func TestFrameTagRange(t *testing.T) {
	for k := KindIdle; k <= KindJobEnd; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name: the kinds no longer end at KindJobEnd", k)
		}
		frame, err := appendBinaryFrame(nil, Message{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		if m, err := readBinaryFrame(bytes.NewReader(frame)); err != nil || m.Kind != k {
			t.Fatalf("%v: read back %+v, %v", k, m, err)
		}
	}
	if !strings.HasPrefix((KindJobEnd + 1).String(), "kind(") {
		t.Fatalf("%v follows KindJobEnd: readFrame must learn the new last kind", KindJobEnd+1)
	}
	for _, tag := range []byte{0, byte(KindJobEnd) + 1, 0x7F, tagHello, tagWelcome, 0xFF} {
		frame := []byte{binMagic, tag, 0, 0, 0, 0}
		if _, err := readBinaryFrame(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "is not a message kind") {
			t.Fatalf("tag %#x: err = %v, want a refusal by tag", tag, err)
		}
	}
}

var updatePinned = flag.Bool("update", false, "rewrite testdata/hot_frames.bin from the current encoder")

// pinnedHotMessages is one message of each kind that travelled as a binary
// frame before protocol v5, every field set (one of them negative).
func pinnedHotMessages() []Message {
	return []Message{
		{Kind: KindTask, From: 0, To: 2, Vertex: 7, Attempt: 3, Job: 5, Payload: []byte("task-region")},
		{Kind: KindResult, From: 2, To: 0, Vertex: 7, Attempt: 3, Job: 5, Payload: []byte{0, 1, 2, 0xFF}, More: true},
		{Kind: KindTaskBatch, From: -1, To: 1, Job: 6, Batch: []TaskEntry{
			{Vertex: 8, Attempt: 1, Payload: []byte("a")},
			{Vertex: 9, Attempt: 2},
			{Vertex: 10, Attempt: 1, Payload: bytes.Repeat([]byte{0xAB}, 40)},
		}},
		{Kind: KindResultBatch, From: 1, To: 0, Job: 6, More: true, Batch: []TaskEntry{
			{Vertex: 8, Attempt: 1, Payload: []byte("out-8")},
			{Vertex: 10, Attempt: 1, Payload: []byte{}},
		}},
	}
}

// The frames of the task hot path did not change when the control kinds
// and the handshake joined them in protocol v5: testdata/hot_frames.bin is
// the four messages above as the v4 encoder wrote them, back to back, but
// for the two batch frames' tag bytes, one lower since protocol v10 dropped
// the user kind (8 and 9 became 7 and 8). -update rewrites it from the
// current encoder and is only for a deliberate format change.
func TestHotFramesPinned(t *testing.T) {
	msgs := pinnedHotMessages()
	var got []byte
	for _, m := range msgs {
		var err error
		if got, err = appendBinaryFrame(got, m); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "hot_frames.bin")
	if *updatePinned {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hot frames differ from the pinned fixture:\n got %x\nwant %x", got, want)
	}
	r := bytes.NewReader(want)
	for i, m := range msgs {
		dec, err := readBinaryFrame(r)
		if err != nil || !equalMessages(dec, m) {
			t.Fatalf("fixture frame %d decodes to %+v, %v; want %+v", i, dec, err, m)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes of the fixture left after four frames", r.Len())
	}
}

// One Conn pair carries the whole protocol in one framing: hello, welcome,
// then one message of each of the ten kinds, equal and in order.
func TestConnCarriesHandshakeAndEveryKind(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)

	hello := Hello{Rank: 1, Version: ProtocolVersion, Fleet: true, Name: "w1"}
	welcome := Welcome{Version: ProtocolVersion, Member: 7, Heartbeat: 50 * time.Millisecond, HeartbeatMiss: 3, Batch: 2}
	sent := []Message{
		{Kind: KindIdle},
		{Kind: KindTask, Vertex: 3, Attempt: 1, Payload: []byte("data")},
		{Kind: KindResult, Vertex: 3, Attempt: 1, Payload: []byte("out")},
		{Kind: KindEnd},
		{Kind: KindHeartbeat},
		{Kind: KindLeave},
		{Kind: KindTaskBatch, Job: 2, Batch: []TaskEntry{{Vertex: 4, Attempt: 1, Payload: []byte("x")}, {Vertex: 5, Attempt: 2}}},
		{Kind: KindResultBatch, More: true, Batch: []TaskEntry{{Vertex: 4, Attempt: 1, Payload: []byte("y")}}},
		{Kind: KindJobSpec, Job: 2, Payload: []byte(`{"job":2}`)},
		{Kind: KindJobEnd, Job: 2},
	}
	for i, m := range sent {
		if m.Kind != Kind(i+1) {
			t.Fatalf("message %d is a %v: the list must hold each kind once, in order", i, m.Kind)
		}
	}
	if Kind(len(sent)) != KindJobEnd {
		t.Fatalf("%d kinds sent, the protocol has %d", len(sent), KindJobEnd)
	}

	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			if err := ca.sendHello(hello); err != nil {
				return err
			}
			if w, err := ca.recvWelcome(time.Second); err != nil || w != welcome {
				return fmt.Errorf("welcome: %+v, %v", w, err)
			}
			for _, m := range sent {
				if err := ca.Send(m); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	if h, err := cb.recvHello(time.Second); err != nil || h != hello {
		t.Fatalf("hello: %+v, %v", h, err)
	}
	if err := cb.sendWelcome(welcome); err != nil {
		t.Fatal(err)
	}
	for i, want := range sent {
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !equalMessages(got, want) {
			t.Fatalf("recv %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("sender: %v", err)
	}
}
