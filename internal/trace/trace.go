// Package trace records scheduling events (task execution intervals per
// worker, ready-set size changes) and derives load-balance metrics from
// them: per-worker utilization and the "idle while computable" measure
// that separates the dynamic EasyHPS pool from the static BCW baseline.
package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"time"
)

// EventKind labels a recorded event.
type EventKind uint8

const (
	// EvStart marks a worker starting a task.
	EvStart EventKind = iota + 1
	// EvEnd marks a worker finishing a task.
	EvEnd
	// EvReady records a change of the computable-set size.
	EvReady
	// EvMember records a cluster membership transition (join, suspect,
	// dead, left) of an elastic worker; Worker carries the member id and
	// Label the new state.
	EvMember
	// EvDispatch records one task message leaving the master: Ready
	// carries the number of vertices in the message (1 for the classic
	// per-vertex protocol, >1 for a batch) and Bytes its payload size.
	EvDispatch
	// EvSpeculate records a speculative backup dispatch: Worker is the
	// member executing the backup and Vertex the straggling vertex.
	EvSpeculate
	// EvSteal records a work-steal: Worker is the hungry member the work
	// moved toward and Ready the number of stolen vertices.
	EvSteal
	// EvTune records the self-tuning controller changing a
	// recommendation: Ready carries the new batch cap and Label the
	// human-readable decision (new spec thresholds and the reason).
	// Emitted only when auto-tuning is enabled and something actually
	// moved, so untuned runs stay byte-identical.
	EvTune
)

// String names the kind for human-readable exports (the job service's
// trace endpoint); unknown values print as "unknown".
func (k EventKind) String() string {
	switch k {
	case EvStart:
		return "start"
	case EvEnd:
		return "end"
	case EvReady:
		return "ready"
	case EvMember:
		return "member"
	case EvDispatch:
		return "dispatch"
	case EvSpeculate:
		return "speculate"
	case EvSteal:
		return "steal"
	case EvTune:
		return "tune"
	}
	return "unknown"
}

// Event is one recorded scheduling event.
type Event struct {
	T      time.Duration // since recorder creation
	Kind   EventKind
	Worker int
	Vertex int32
	Ready  int    // ready-set size for EvReady; batch size for EvDispatch
	Bytes  int    // payload bytes, for EvDispatch
	Label  string // membership state, for EvMember
}

// JSONEvent is the export shape of one event on the job service's trace
// endpoint: the kind as its string name, the timestamp in microseconds,
// and zero-valued fields omitted, so a stream of events stays compact.
type JSONEvent struct {
	TMicros int64  `json:"t_us"`
	Kind    string `json:"kind"`
	Worker  int    `json:"worker,omitempty"`
	Vertex  int32  `json:"vertex,omitempty"`
	Ready   int    `json:"ready,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	Label   string `json:"label,omitempty"`
}

// JSON converts the event for export.
func (e Event) JSON() JSONEvent {
	return JSONEvent{
		TMicros: e.T.Microseconds(),
		Kind:    e.Kind.String(),
		Worker:  e.Worker,
		Vertex:  e.Vertex,
		Ready:   e.Ready,
		Bytes:   e.Bytes,
		Label:   e.Label,
	}
}

// ExportJSON converts a recording for the trace endpoint.
func ExportJSON(events []Event) []JSONEvent {
	out := make([]JSONEvent, len(events))
	for i, e := range events {
		out[i] = e.JSON()
	}
	return out
}

// Format renders events one per line in a canonical, byte-stable form:
// the JSON export shape in struct field order, zero fields omitted. Two
// recordings are the same schedule iff their Format outputs are equal
// byte for byte — the comparison the deterministic simulator's
// same-seed contract is asserted through.
func Format(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		enc, err := json.Marshal(e.JSON())
		if err != nil {
			// JSONEvent holds only scalars and strings; Marshal cannot
			// fail. Keep the line count stable regardless.
			enc = []byte(`{"kind":"unencodable"}`)
		}
		b.Write(enc)
		b.WriteByte('\n')
	}
	return b.String()
}

// Recorder collects events. A nil *Recorder is valid and records nothing,
// so call sites do not need to guard tracing.
type Recorder struct {
	mu     sync.Mutex
	start  time.Time
	now    func() time.Time
	events []Event
}

// New creates an empty recorder stamping events with wall-clock time.
func New() *Recorder {
	return NewWithNow(time.Now)
}

// NewWithNow creates a recorder that stamps events with the given time
// source instead of the wall clock. The deterministic simulator passes a
// virtual clock here so the same scenario yields byte-identical traces;
// production recorders keep using New.
func NewWithNow(now func() time.Time) *Recorder {
	return &Recorder{start: now(), now: now}
}

func (r *Recorder) add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.T = r.now().Sub(r.start)
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// TaskStart records worker w starting vertex v.
func (r *Recorder) TaskStart(w int, v int32) { r.add(Event{Kind: EvStart, Worker: w, Vertex: v}) }

// TaskEnd records worker w finishing vertex v.
func (r *Recorder) TaskEnd(w int, v int32) { r.add(Event{Kind: EvEnd, Worker: w, Vertex: v}) }

// Ready records the current size of the computable set.
func (r *Recorder) Ready(n int) { r.add(Event{Kind: EvReady, Ready: n}) }

// Dispatch records one task message to worker w carrying vertices vertices
// and bytes payload bytes.
func (r *Recorder) Dispatch(w, vertices, bytes int) {
	r.add(Event{Kind: EvDispatch, Worker: w, Ready: vertices, Bytes: bytes})
}

// Speculate records a backup attempt of vertex v dispatched to worker w.
func (r *Recorder) Speculate(w int, v int32) {
	r.add(Event{Kind: EvSpeculate, Worker: w, Vertex: v})
}

// Steal records n vertices stolen toward hungry worker w.
func (r *Recorder) Steal(w, n int) {
	r.add(Event{Kind: EvSteal, Worker: w, Ready: n})
}

// Tune records a controller adjustment: the new batch cap and a label
// describing the full decision ("batch 2->4 (amortizing)" or
// "spec q=0.960 m=2.50 (uniform, dispersion 1.20)").
func (r *Recorder) Tune(batchCap int, label string) {
	r.add(Event{Kind: EvTune, Ready: batchCap, Label: label})
}

// Member records a membership transition of elastic worker id (states:
// "active", "suspect", "dead", "left").
func (r *Recorder) Member(id int, state string) {
	r.add(Event{Kind: EvMember, Worker: id, Label: state})
}

// Events returns a copy of the recorded events in order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Summary aggregates a recording.
type Summary struct {
	// Workers is the number of distinct workers seen.
	Workers int
	// Tasks is the number of completed task intervals.
	Tasks int
	// Makespan is the time of the last event.
	Makespan time.Duration
	// Busy is the per-worker total execution time.
	Busy map[int]time.Duration
	// IdleWhileReady accumulates worker-time during which at least one
	// worker sat idle while the computable set was non-empty — the
	// situation the paper calls BCW's fatal flaw, which "never happens"
	// under the dynamic pool (up to dispatch latency).
	IdleWhileReady time.Duration
	// DispatchMessages and DispatchVertices count task messages and the
	// vertices they carried; their ratio is the realized mean batch size.
	DispatchMessages, DispatchVertices int
	// DispatchBytes is the total task payload volume.
	DispatchBytes int64
}

// Utilization returns the mean busy fraction across workers.
func (s Summary) Utilization() float64 {
	if s.Workers == 0 || s.Makespan == 0 {
		return 0
	}
	var total time.Duration
	for _, b := range s.Busy {
		total += b
	}
	return float64(total) / (float64(s.Makespan) * float64(s.Workers))
}

// Summarize replays the event log and computes the summary.
func (r *Recorder) Summarize() Summary {
	events := r.Events()
	s := Summary{Busy: make(map[int]time.Duration)}
	busySince := make(map[int]time.Duration)
	busy := make(map[int]bool)
	seen := make(map[int]bool)
	ready := 0
	var last time.Duration

	idleWorkers := func() int {
		n := 0
		for w := range seen {
			if !busy[w] {
				n++
			}
		}
		return n
	}

	for _, e := range events {
		if dt := e.T - last; dt > 0 {
			if ready > 0 {
				idle := idleWorkers()
				m := idle
				if ready < m {
					m = ready
				}
				s.IdleWhileReady += time.Duration(int64(dt) * int64(m))
			}
			last = e.T
		}
		switch e.Kind {
		case EvStart:
			seen[e.Worker] = true
			busy[e.Worker] = true
			busySince[e.Worker] = e.T
			// The ready set is recorded at pushes only: a started attempt
			// has left it, until the next EvReady resyncs the count.
			ready = max(ready-1, 0)
		case EvEnd:
			seen[e.Worker] = true
			if busy[e.Worker] {
				s.Busy[e.Worker] += e.T - busySince[e.Worker]
				busy[e.Worker] = false
				s.Tasks++
			}
		case EvReady:
			ready = e.Ready
		case EvDispatch:
			s.DispatchMessages++
			s.DispatchVertices += e.Ready
			s.DispatchBytes += int64(e.Bytes)
		}
		if e.T > s.Makespan {
			s.Makespan = e.T
		}
	}
	s.Workers = len(seen)
	return s
}
