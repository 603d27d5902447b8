package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Harness runs in-process fleet workers for tests and benchmarks, with
// fault injection. Every worker connects to the master through its own
// TCP proxy, so a test can fail the link (Kill), freeze it without
// closing it (Partition/Heal — the half-open case heartbeats exist for),
// or slow the member's compute (Slow), all without reaching into the
// worker's goroutines.
type Harness[T any] struct {
	build  Builder[T]
	master string
	opts   WorkerOptions
	delay  func() time.Duration

	mu      sync.Mutex
	workers []*harnessWorker
	wg      sync.WaitGroup
}

type harnessWorker struct {
	proxy  *proxy
	slow   atomic.Int64 // extra per-task delay, ns
	cancel context.CancelFunc
	done   chan struct{}
	err    error // valid after done is closed
}

// NewHarness prepares a harness whose workers attach jobs through build
// and serve the fleet at masterAddr. opts is the per-worker template, Addr
// and Name overridden per worker; each task waits delay() (none when nil)
// plus what Slow adds before it computes.
func NewHarness[T any](build Builder[T], masterAddr string, opts WorkerOptions, delay func() time.Duration) *Harness[T] {
	return &Harness[T]{build: build, master: masterAddr, opts: opts, delay: delay}
}

// Add starts one worker (joining through a fresh proxy) and returns its
// harness index. Adding while a job is underway is exactly the elastic
// mid-run join.
func (h *Harness[T]) Add(ctx context.Context) (int, error) {
	px, err := newProxy(h.master)
	if err != nil {
		return 0, err
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &harnessWorker{proxy: px, cancel: cancel, done: make(chan struct{})}
	h.mu.Lock()
	idx := len(h.workers)
	h.workers = append(h.workers, w)
	h.mu.Unlock()

	opts := h.opts
	opts.Addr = px.addr()
	opts.Name = fmt.Sprintf("harness-%d", idx)
	opts.taskDelay = func() time.Duration {
		d := time.Duration(w.slow.Load())
		if h.delay != nil {
			d += h.delay()
		}
		return d
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer close(w.done)
		defer cancel()
		w.err = RunWorker(wctx, h.build, opts)
	}()
	return idx, nil
}

// with applies fn to worker i, when there is one.
func (h *Harness[T]) with(i int, fn func(w *harnessWorker)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i >= 0 && i < len(h.workers) {
		fn(h.workers[i])
	}
}

// Kill fails worker i abruptly: its proxy closes every connection with no
// Leave frame, emulating a crashed process. The master notices through
// the connection error (fast path) or the heartbeat deadline.
func (h *Harness[T]) Kill(i int) { h.with(i, func(w *harnessWorker) { w.proxy.close() }) }

// Leave cancels worker i's context: it sends a Leave frame and departs
// gracefully.
func (h *Harness[T]) Leave(i int) { h.with(i, func(w *harnessWorker) { w.cancel() }) }

// Partition freezes worker i's link in both directions without closing
// it: TCP stays established, bytes stop flowing — the silent half-open
// failure mode. Heal resumes the flow (no bytes are lost while frozen).
func (h *Harness[T]) Partition(i int) { h.with(i, func(w *harnessWorker) { w.proxy.pause(true) }) }

// Heal unfreezes a partitioned worker's link.
func (h *Harness[T]) Heal(i int) { h.with(i, func(w *harnessWorker) { w.proxy.pause(false) }) }

// Slow adds d of artificial delay before each of worker i's tasks
// (0 restores full speed).
func (h *Harness[T]) Slow(i int, d time.Duration) {
	h.with(i, func(w *harnessWorker) { w.slow.Store(int64(d)) })
}

// Err blocks until worker i exits and returns its RunWorker error.
func (h *Harness[T]) Err(i int) error {
	var w *harnessWorker
	h.with(i, func(hw *harnessWorker) { w = hw })
	if w == nil {
		return fmt.Errorf("fleet: harness has no worker %d", i)
	}
	<-w.done
	return w.err
}

// Close kills every worker and waits for them.
func (h *Harness[T]) Close() {
	h.mu.Lock()
	workers := append([]*harnessWorker(nil), h.workers...)
	h.mu.Unlock()
	for _, w := range workers {
		w.cancel()
		w.proxy.close()
	}
	h.wg.Wait()
}

// proxy is a byte-level TCP forwarder with a freeze gate.
type proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	cond   *sync.Cond
	paused bool
	closed bool
	conns  []net.Conn
}

func newProxy(target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, target: target}
	p.cond = sync.NewCond(&p.mu)
	go p.acceptLoop()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			up.Close()
			continue
		}
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()
		go p.pipe(c, up)
		go p.pipe(up, c)
	}
}

// pipe copies src to dst, holding each chunk at the freeze gate.
func (p *proxy) pipe(src, dst net.Conn) {
	defer src.Close()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.gate()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// gate blocks while the proxy is paused.
func (p *proxy) gate() {
	p.mu.Lock()
	for p.paused && !p.closed {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

func (p *proxy) pause(v bool) {
	p.mu.Lock()
	p.paused = v
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close tears the proxy down abruptly: listener and every live connection
// close with no goodbye, releasing any pipe stuck at the gate.
func (p *proxy) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}
