package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestChanNetworkBasic(t *testing.T) {
	nw := NewChanNetwork(3, LatencyModel{})
	defer nw.Close()
	m0 := nw.Endpoint(0)
	s1 := nw.Endpoint(1)

	if m0.Rank() != 0 || m0.Size() != 3 {
		t.Fatalf("rank/size = %d/%d", m0.Rank(), m0.Size())
	}
	if err := s1.Send(0, Message{Kind: KindIdle}); err != nil {
		t.Fatal(err)
	}
	got, err := m0.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindIdle || got.From != 1 || got.To != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestChanNetworkPairOrdering(t *testing.T) {
	nw := NewChanNetwork(2, LatencyModel{})
	defer nw.Close()
	const n = 500
	go func() {
		for k := 0; k < n; k++ {
			nw.Endpoint(1).Send(0, Message{Kind: KindResult, Vertex: int32(k)})
		}
	}()
	for k := 0; k < n; k++ {
		m, err := nw.Endpoint(0).Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Vertex != int32(k) {
			t.Fatalf("message %d arrived out of order (vertex %d)", k, m.Vertex)
		}
	}
}

func TestChanNetworkManyToOne(t *testing.T) {
	const slaves, per = 6, 50
	nw := NewChanNetwork(slaves+1, LatencyModel{})
	defer nw.Close()
	var wg sync.WaitGroup
	for s := 1; s <= slaves; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := nw.Endpoint(s).Send(0, Message{Kind: KindResult, Vertex: int32(k)}); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(s)
	}
	seen := make(map[int]int)
	for k := 0; k < slaves*per; k++ {
		m, err := nw.Endpoint(0).Recv()
		if err != nil {
			t.Fatal(err)
		}
		seen[m.From]++
	}
	wg.Wait()
	for s := 1; s <= slaves; s++ {
		if seen[s] != per {
			t.Errorf("rank %d delivered %d messages, want %d", s, seen[s], per)
		}
	}
}

func TestChanNetworkCloseUnblocksRecv(t *testing.T) {
	nw := NewChanNetwork(2, LatencyModel{})
	errc := make(chan error, 1)
	go func() {
		_, err := nw.Endpoint(1).Recv()
		errc <- err
	}()
	// No ordering guard: whether Recv parks first or Close lands first,
	// the contract is the same ErrClosed, so both interleavings are
	// valid runs of this test.
	nw.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
	if err := nw.Endpoint(0).Send(1, Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestChanNetworkDrainAfterClose(t *testing.T) {
	nw := NewChanNetwork(2, LatencyModel{})
	nw.Endpoint(0).Send(1, Message{Kind: KindEnd})
	nw.Close()
	m, err := nw.Endpoint(1).Recv()
	if err != nil {
		t.Fatalf("buffered message lost at close: %v", err)
	}
	if m.Kind != KindEnd {
		t.Fatalf("got %v", m.Kind)
	}
	if _, err := nw.Endpoint(1).Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed after drain", err)
	}
}

func TestChanNetworkInvalidRank(t *testing.T) {
	nw := NewChanNetwork(2, LatencyModel{})
	defer nw.Close()
	if err := nw.Endpoint(0).Send(7, Message{}); err == nil {
		t.Fatal("send to invalid rank succeeded")
	}
}

func TestLatencyModelDelay(t *testing.T) {
	l := LatencyModel{Base: time.Millisecond, PerKB: time.Millisecond}
	if d := l.Delay(0); d != time.Millisecond {
		t.Errorf("Delay(0) = %v", d)
	}
	if d := l.Delay(2048); d != 3*time.Millisecond {
		t.Errorf("Delay(2048) = %v", d)
	}
	if !(LatencyModel{}).Zero() || l.Zero() {
		t.Error("Zero() wrong")
	}
}

func TestLatencyModelSlowsSend(t *testing.T) {
	nw := NewChanNetwork(2, LatencyModel{Base: 20 * time.Millisecond})
	defer nw.Close()
	start := time.Now()
	nw.Endpoint(0).Send(1, Message{})
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("send took %v, want >= ~20ms of injected latency", d)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindIdle: "idle", KindTask: "task", KindResult: "result",
		KindEnd: "end", KindHeartbeat: "heartbeat", KindJobEnd: "job-end", Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// listenMaster binds addr and runs the rank-0 rendezvous on it.
func listenMaster(addr string, slaves int, timeout time.Duration) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ListenMasterOn(ln, slaves, timeout, TCPOptions{})
}

func TestTCPTransportFixedPort(t *testing.T) {
	const slaves = 2
	addr := "127.0.0.1:39217"

	type result struct {
		tr  *TCPTransport
		err error
	}
	masterc := make(chan result, 1)
	go func() {
		m, err := listenMaster(addr, slaves, 5*time.Second)
		masterc <- result{m, err}
	}()

	var workers []*TCPTransport
	for r := 1; r <= slaves; r++ {
		w, err := DialWorker(addr, r, slaves, 5*time.Second)
		if err != nil {
			t.Fatalf("DialWorker(%d): %v", r, err)
		}
		defer w.Close()
		workers = append(workers, w)
	}
	mr := <-masterc
	if mr.err != nil {
		t.Fatalf("listenMaster: %v", mr.err)
	}
	master := mr.tr
	defer master.Close()

	if master.Size() != slaves+1 || workers[0].Size() != slaves+1 {
		t.Fatal("wrong size")
	}

	// Worker -> master.
	if err := workers[0].Send(0, Message{Kind: KindIdle, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	m, err := master.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 1 || m.Kind != KindIdle || string(m.Payload) != "hi" {
		t.Fatalf("got %+v", m)
	}

	// Master -> each worker.
	for r := 1; r <= slaves; r++ {
		if err := master.Send(r, Message{Kind: KindTask, Vertex: int32(r * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	for k, w := range workers {
		m, err := w.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Vertex != int32((k+1)*10) || m.From != 0 {
			t.Fatalf("worker %d got %+v", k+1, m)
		}
	}

	// Worker has no link to another worker.
	if err := workers[0].Send(2, Message{}); err == nil {
		t.Fatal("worker->worker send should fail")
	}

	master.Close()
	if err := master.Send(1, Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestTCPTransportOrdering(t *testing.T) {
	addr := "127.0.0.1:39218"
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

	const n = 200
	go func() {
		for k := 0; k < n; k++ {
			w.Send(0, Message{Kind: KindResult, Vertex: int32(k), Payload: []byte(fmt.Sprintf("p%d", k))})
		}
	}()
	for k := 0; k < n; k++ {
		m, err := mr.tr.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Vertex != int32(k) {
			t.Fatalf("out of order: got %d at position %d", m.Vertex, k)
		}
	}
}

func TestDialWorkerBadRank(t *testing.T) {
	if _, err := DialWorker("127.0.0.1:1", 0, 2, time.Millisecond); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := DialWorker("127.0.0.1:1", 3, 2, time.Millisecond); err == nil {
		t.Fatal("rank beyond slaves accepted")
	}
}

func TestDialWorkerTimeout(t *testing.T) {
	start := time.Now()
	_, err := DialWorker("127.0.0.1:1", 1, 1, 200*time.Millisecond)
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honored")
	}
}
