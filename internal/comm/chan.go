package comm

import (
	"fmt"
	"sync"
	"time"
)

// ChanNetwork is the in-process transport: n ranks exchanging messages via
// buffered channels inside one OS process. Each "node" of the emulated
// cluster is a goroutine group holding one endpoint.
type ChanNetwork struct {
	lat LatencyModel
	eps []*chanEndpoint
}

type chanEndpoint struct {
	nw   *ChanNetwork
	rank int
	in   chan Message
	done chan struct{}
	once sync.Once
}

// NewChanNetwork creates a network of size ranks (rank 0 is the master)
// with the given latency model.
func NewChanNetwork(size int, lat LatencyModel) *ChanNetwork {
	if size < 2 {
		panic("comm: network needs at least a master and one slave")
	}
	nw := &ChanNetwork{lat: lat, eps: make([]*chanEndpoint, size)}
	for r := range nw.eps {
		nw.eps[r] = &chanEndpoint{
			nw:   nw,
			rank: r,
			// The runtime protocol keeps the number of in-flight
			// messages per rank small (one outstanding task plus
			// idle/result signals per slave); the buffer is sized
			// with ample margin so senders never block for long.
			in:   make(chan Message, 16*size+256),
			done: make(chan struct{}),
		}
	}
	return nw
}

// Endpoint returns the transport of the given rank.
func (nw *ChanNetwork) Endpoint(rank int) Transport { return nw.eps[rank] }

// Close shuts down every endpoint.
func (nw *ChanNetwork) Close() {
	for _, ep := range nw.eps {
		ep.Close()
	}
}

func (ep *chanEndpoint) Rank() int { return ep.rank }
func (ep *chanEndpoint) Size() int { return len(ep.nw.eps) }

func (ep *chanEndpoint) Send(to int, m Message) error {
	if to < 0 || to >= len(ep.nw.eps) {
		return fmt.Errorf("comm: send to invalid rank %d", to)
	}
	m.From = ep.rank
	m.To = to
	if d := ep.nw.lat.Delay(m.PayloadLen()); d > 0 {
		time.Sleep(d)
	}
	dst := ep.nw.eps[to]
	select {
	case <-dst.done:
		// Checked first so a Send after Close deterministically fails
		// even while buffer space remains.
		return ErrClosed
	default:
	}
	select {
	case dst.in <- m:
	case <-dst.done:
		return ErrClosed
	}
	return nil
}

func (ep *chanEndpoint) Recv() (Message, error) {
	select {
	case m := <-ep.in:
		return m, nil
	case <-ep.done:
		// Drain messages that were already buffered before the close.
		select {
		case m := <-ep.in:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

func (ep *chanEndpoint) Close() error {
	ep.once.Do(func() { close(ep.done) })
	return nil
}
