package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tick is a manually-advanced time source: every recorder in this file
// runs on one, so no test ever sleeps to separate event timestamps.
type tick struct{ now time.Time }

func newTick() *tick                    { return &tick{now: time.Unix(0, 0)} }
func (c *tick) Now() time.Time          { return c.now }
func (c *tick) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *tick) Recorder() *Recorder     { return NewWithNow(c.Now) }

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.TaskStart(0, 1)
	r.TaskEnd(0, 1)
	r.Ready(3)
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder returned events: %v", got)
	}
}

func TestRecorderOrderAndCopy(t *testing.T) {
	c := newTick()
	r := c.Recorder()
	r.TaskStart(0, 1)
	c.Advance(time.Millisecond)
	r.TaskEnd(0, 1)
	ev := r.Events()
	if len(ev) != 2 || ev[0].Kind != EvStart || ev[1].Kind != EvEnd {
		t.Fatalf("events = %+v", ev)
	}
	if ev[1].T != ev[0].T+time.Millisecond {
		t.Fatalf("timestamps = %v, %v; want exactly 1ms apart", ev[0].T, ev[1].T)
	}
	ev[0].Worker = 99
	if r.Events()[0].Worker == 99 {
		t.Fatal("Events did not copy")
	}
}

func TestSummarizeBusyAndTasks(t *testing.T) {
	c := newTick()
	r := c.Recorder()
	r.TaskStart(0, 1)
	r.TaskStart(1, 2)
	c.Advance(5 * time.Millisecond)
	r.TaskEnd(0, 1)
	r.TaskEnd(1, 2)
	s := r.Summarize()
	if s.Workers != 2 || s.Tasks != 2 {
		t.Fatalf("Workers=%d Tasks=%d", s.Workers, s.Tasks)
	}
	for w := 0; w < 2; w++ {
		if s.Busy[w] != 5*time.Millisecond {
			t.Errorf("Busy[%d] = %v, want exactly 5ms", w, s.Busy[w])
		}
	}
	if u := s.Utilization(); u <= 0 || u > 1.01 {
		t.Errorf("Utilization = %v", u)
	}
}

func TestSummarizeIdleWhileReady(t *testing.T) {
	c := newTick()
	r := c.Recorder()
	// Worker 0 does a task; worker 1 known but idle while ready > 0.
	r.TaskStart(1, 9)
	r.TaskEnd(1, 9) // worker 1 now known and idle
	r.Ready(2)
	r.TaskStart(0, 1)
	c.Advance(10 * time.Millisecond)
	r.TaskEnd(0, 1)
	r.Ready(0)
	s := r.Summarize()
	if s.IdleWhileReady != 10*time.Millisecond {
		t.Fatalf("IdleWhileReady = %v, want exactly 10ms", s.IdleWhileReady)
	}
}

// A vertex drawn and started leaves the ready set before the next push
// records its size: with one ready vertex started, the second worker's
// idleness is not next to computable work.
func TestSummarizeStartLeavesReadySet(t *testing.T) {
	c := newTick()
	r := c.Recorder()
	r.TaskStart(1, 9)
	r.TaskEnd(1, 9) // worker 1 known and idle
	r.Ready(1)
	r.TaskStart(0, 1)
	c.Advance(10 * time.Millisecond)
	r.TaskEnd(0, 1)
	if s := r.Summarize(); s.IdleWhileReady != 0 {
		t.Fatalf("IdleWhileReady = %v, want 0: the one ready vertex started", s.IdleWhileReady)
	}
}

func TestSummarizeNoIdleWhenReadyZero(t *testing.T) {
	c := newTick()
	r := c.Recorder()
	r.TaskStart(0, 1)
	r.TaskEnd(0, 1)
	r.Ready(0)
	c.Advance(5 * time.Millisecond)
	r.TaskStart(0, 2)
	r.TaskEnd(0, 2)
	s := r.Summarize()
	if s.IdleWhileReady != 0 {
		t.Fatalf("IdleWhileReady = %v, want 0", s.IdleWhileReady)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	if u := (Summary{}).Utilization(); u != 0 {
		t.Fatalf("Utilization of empty summary = %v", u)
	}
}

func TestGanttRendering(t *testing.T) {
	c := newTick()
	r := c.Recorder()
	r.TaskStart(0, 1)
	r.TaskStart(1, 2)
	c.Advance(4 * time.Millisecond)
	r.TaskEnd(1, 2)
	c.Advance(4 * time.Millisecond)
	r.TaskEnd(0, 1)
	var buf strings.Builder
	r.Gantt(&buf, 40)
	out := buf.String()
	if !strings.Contains(out, "w0 ") || !strings.Contains(out, "w1 ") {
		t.Fatalf("gantt missing worker rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt rows = %d:\n%s", len(lines), out)
	}
	// Worker 0 busy nearly throughout; worker 1 roughly half.
	if !strings.Contains(lines[1], "#") || !strings.Contains(lines[2], "#") {
		t.Fatalf("gantt rows show no work:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	var buf strings.Builder
	New().Gantt(&buf, 40)
	if !strings.Contains(buf.String(), "no events") {
		t.Fatalf("empty gantt output: %q", buf.String())
	}
}

func TestGanttOpenIntervalRunsToEdge(t *testing.T) {
	c := newTick()
	r := c.Recorder()
	r.TaskStart(0, 1)
	c.Advance(2 * time.Millisecond)
	r.Ready(1) // a later event sets the makespan; task 1 never ends
	var buf strings.Builder
	r.Gantt(&buf, 20)
	if !strings.Contains(buf.String(), "####") {
		t.Fatalf("open interval not rendered:\n%s", buf.String())
	}
}

func TestEventJSONExport(t *testing.T) {
	r := New()
	r.Dispatch(3, 2, 512)
	r.TaskStart(3, 7)
	r.Member(4, "dead")
	events := ExportJSON(r.Events())
	if len(events) != 3 {
		t.Fatalf("exported %d events, want 3", len(events))
	}
	if events[0].Kind != "dispatch" || events[0].Worker != 3 || events[0].Ready != 2 || events[0].Bytes != 512 {
		t.Fatalf("dispatch export = %+v", events[0])
	}
	if events[1].Kind != "start" || events[1].Vertex != 7 {
		t.Fatalf("start export = %+v", events[1])
	}
	if events[2].Kind != "member" || events[2].Label != "dead" {
		t.Fatalf("member export = %+v", events[2])
	}
	enc, err := json.Marshal(events[2])
	if err != nil {
		t.Fatal(err)
	}
	// Zero-valued fields are omitted so event streams stay compact.
	if strings.Contains(string(enc), "vertex") || !strings.Contains(string(enc), `"kind":"member"`) {
		t.Fatalf("member JSON = %s", enc)
	}
	if got := EventKind(0).String(); got != "unknown" {
		t.Fatalf("EventKind(0) = %q", got)
	}
}

func TestFormatByteStable(t *testing.T) {
	record := func() []Event {
		c := newTick()
		r := c.Recorder()
		r.Member(1, "active")
		r.Ready(2)
		c.Advance(3 * time.Millisecond)
		r.Dispatch(1, 2, 64)
		r.TaskStart(1, 0)
		c.Advance(time.Millisecond)
		r.TaskEnd(1, 0)
		return r.Events()
	}
	a, b := record(), record()
	fa, fb := Format(a), Format(b)
	if fa != fb {
		t.Fatalf("identical recordings format differently:\n%s\nvs\n%s", fa, fb)
	}
	lines := strings.Split(strings.TrimSuffix(fa, "\n"), "\n")
	if len(lines) != len(a) {
		t.Fatalf("Format produced %d lines for %d events", len(lines), len(a))
	}
	if !strings.Contains(lines[2], `"t_us":3000`) || !strings.Contains(lines[2], `"kind":"dispatch"`) {
		t.Fatalf("dispatch line = %s", lines[2])
	}
}
