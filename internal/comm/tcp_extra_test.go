package comm

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// Large payloads (a full data region of a big block) must survive the
// framing intact in both directions.
func TestTCPLargePayload(t *testing.T) {
	addr := "127.0.0.1:39219"
	type result struct {
		tr  *TCPTransport
		err error
	}
	masterc := make(chan result, 1)
	go func() {
		m, err := listenMaster(addr, 1, 5*time.Second)
		masterc <- result{m, err}
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
	defer mr.tr.Close()

	payload := make([]byte, 8<<20) // 8 MiB
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := mr.tr.Send(1, Message{Kind: KindTask, Vertex: 9, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, err := w.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Vertex != 9 || !bytes.Equal(got.Payload, payload) {
		t.Fatal("large payload corrupted master->worker")
	}
	// And back.
	if err := w.Send(0, Message{Kind: KindResult, Vertex: 9, Payload: payload[:1<<20]}); err != nil {
		t.Fatal(err)
	}
	back, err := mr.tr.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Payload, payload[:1<<20]) {
		t.Fatal("large payload corrupted worker->master")
	}
}

// Concurrent senders on one TCP link must not interleave frames (the
// write mutex serializes whole frames).
func TestTCPConcurrentSenders(t *testing.T) {
	addr := "127.0.0.1:39220"
	type result struct {
		tr  *TCPTransport
		err error
	}
	masterc := make(chan result, 1)
	go func() {
		m, err := listenMaster(addr, 1, 5*time.Second)
		masterc <- result{m, err}
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
	defer mr.tr.Close()

	const goroutines, per = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				payload := bytes.Repeat([]byte{byte(g)}, 100+g)
				if err := w.Send(0, Message{Kind: KindResult, Vertex: int32(g), Payload: payload}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < goroutines*per; k++ {
			m, err := mr.tr.Recv()
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			want := bytes.Repeat([]byte{byte(m.Vertex)}, 100+int(m.Vertex))
			if !bytes.Equal(m.Payload, want) {
				t.Errorf("frame from goroutine %d corrupted", m.Vertex)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("messages lost")
	}
}

// A worker that disappears mid-run must not wedge the master's Recv: the
// pump simply stops, and Send to the dead link errors out eventually.
func TestTCPWorkerDisappears(t *testing.T) {
	addr := "127.0.0.1:39221"
	type result struct {
		tr  *TCPTransport
		err error
	}
	masterc := make(chan result, 1)
	go func() {
		m, err := listenMaster(addr, 1, 5*time.Second)
		masterc <- result{m, err}
	}()
	w, err := DialWorker(addr, 1, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mr := <-masterc
	if mr.err != nil {
		t.Fatal(mr.err)
	}
	defer mr.tr.Close()

	w.Close() // the worker dies

	// Sends eventually fail (TCP buffers may absorb a few).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := mr.tr.Send(1, Message{Kind: KindTask, Payload: make([]byte, 1<<20)}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to dead worker never fail")
		}
	}
}
