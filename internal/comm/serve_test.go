package comm

import (
	"errors"
	"fmt"
	"testing"
)

// serveFrame is one expected frame of a ServeTasks answer: its kind, how
// many results it carries, and whether it is a partial flush.
type serveFrame struct {
	kind    Kind
	results int
	more    bool
}

// TestServeTasks pins the result protocol against a scripted send: for a
// batch of 0, 1, flush, flush+1 and 3*flush entries at flush bounds 1 and
// 4, the exact frame sequence — More on every flush that is not the last,
// the kind of the last frame, the job id on every result frame, and every
// entry's vertex, attempt stamp and output, in order.
func TestServeTasks(t *testing.T) {
	const job = 7
	flushMore := func(n int) serveFrame { return serveFrame{KindResultBatch, n, true} }
	cases := []struct {
		flush, entries int
		single         bool // a KindTask frame instead of a batch
		want           []serveFrame
	}{
		{flush: 1, entries: 1, single: true, want: []serveFrame{{KindResult, 1, false}}},
		{flush: 4, entries: 1, single: true, want: []serveFrame{{KindResult, 1, false}}},

		{flush: 1, entries: 0, want: []serveFrame{{KindIdle, 0, false}}},
		{flush: 1, entries: 1, want: []serveFrame{{KindResult, 1, false}}},
		{flush: 1, entries: 2, want: []serveFrame{flushMore(1), {KindResult, 1, false}}},
		{flush: 1, entries: 3, want: []serveFrame{flushMore(1), flushMore(1), {KindResult, 1, false}}},

		{flush: 4, entries: 0, want: []serveFrame{{KindIdle, 0, false}}},
		{flush: 4, entries: 1, want: []serveFrame{{KindResult, 1, false}}},
		{flush: 4, entries: 4, want: []serveFrame{{KindResultBatch, 4, false}}},
		{flush: 4, entries: 5, want: []serveFrame{flushMore(4), {KindResult, 1, false}}},
		{flush: 4, entries: 12, want: []serveFrame{flushMore(4), flushMore(4), {KindResultBatch, 4, false}}},

		// A flush bound below 1 means 1.
		{flush: 0, entries: 2, want: []serveFrame{flushMore(1), {KindResult, 1, false}}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("flush=%d/entries=%d/single=%v", tc.flush, tc.entries, tc.single)
		t.Run(name, func(t *testing.T) {
			msg := Message{Kind: KindTaskBatch, Job: job}
			for i := 0; i < tc.entries; i++ {
				msg.Batch = append(msg.Batch, TaskEntry{Vertex: int32(10 + i), Attempt: int32(100 + i), Payload: []byte{byte(i)}})
			}
			if tc.single {
				e := msg.Batch[0]
				msg = Message{Kind: KindTask, Job: job, Vertex: e.Vertex, Attempt: e.Attempt, Payload: e.Payload}
			}
			var sent []Message
			run := func(vertex int32, task []byte) ([]byte, error) {
				return []byte{task[0], byte(vertex)}, nil
			}
			send := func(m Message) error {
				sent = append(sent, m)
				return nil
			}
			if err := ServeTasks(msg, tc.flush, run, send); err != nil {
				t.Fatal(err)
			}
			if len(sent) != len(tc.want) {
				t.Fatalf("sent %d frames, want %d: %+v", len(sent), len(tc.want), sent)
			}
			next := 0 // index of the next entry whose result is due
			for k, m := range sent {
				w := tc.want[k]
				if m.Kind != w.kind || m.More != w.more {
					t.Fatalf("frame %d = (%v, more=%v), want (%v, more=%v)", k, m.Kind, m.More, w.kind, w.more)
				}
				results := m.Batch
				if m.Kind == KindResult {
					results = []TaskEntry{{Vertex: m.Vertex, Attempt: m.Attempt, Payload: m.Payload}}
				}
				if len(results) != w.results {
					t.Fatalf("frame %d carries %d results, want %d", k, len(results), w.results)
				}
				if m.Kind != KindIdle && m.Job != job {
					t.Fatalf("frame %d has job %d, want %d echoed", k, m.Job, job)
				}
				for _, r := range results {
					want := TaskEntry{Vertex: int32(10 + next), Attempt: int32(100 + next), Payload: []byte{byte(next), byte(10 + next)}}
					if r.Vertex != want.Vertex || r.Attempt != want.Attempt || string(r.Payload) != string(want.Payload) {
						t.Fatalf("frame %d result = %+v, want %+v", k, r, want)
					}
					next++
				}
			}
			if next != tc.entries {
				t.Fatalf("%d results answered, want %d", next, tc.entries)
			}
		})
	}
}

// TestServeTasksErrors: a run error stops the frame before the next entry
// and comes back unwrapped; a send error comes back marked ErrSend, with
// the link's own error still matchable, so callers can tell the two apart.
func TestServeTasksErrors(t *testing.T) {
	msg := Message{Kind: KindTaskBatch, Job: 3}
	for i := 0; i < 5; i++ {
		msg.Batch = append(msg.Batch, TaskEntry{Vertex: int32(i), Attempt: 1})
	}

	errCompute := errors.New("kernel failed")
	ran, sent := 0, 0
	err := ServeTasks(msg, 1,
		func(vertex int32, _ []byte) ([]byte, error) {
			ran++
			if vertex == 2 {
				return nil, errCompute
			}
			return nil, nil
		},
		func(Message) error { sent++; return nil })
	if err != errCompute {
		t.Fatalf("run error = %v, want the run callback's own error, unwrapped", err)
	}
	if errors.Is(err, ErrSend) {
		t.Fatal("a run error is marked ErrSend")
	}
	if ran != 3 || sent != 2 {
		t.Fatalf("ran %d entries and sent %d frames, want 3 and 2 (stop before the next entry)", ran, sent)
	}

	errLink := errors.New("link down")
	for _, failAt := range []int{1, 5} { // the first flush, the final frame
		ran, sent = 0, 0
		err = ServeTasks(msg, 1,
			func(int32, []byte) ([]byte, error) { ran++; return nil, nil },
			func(Message) error {
				sent++
				if sent == failAt {
					return errLink
				}
				return nil
			})
		if !errors.Is(err, ErrSend) || !errors.Is(err, errLink) {
			t.Fatalf("send error at frame %d = %v, want ErrSend wrapping the link error", failAt, err)
		}
		if ran != failAt {
			t.Fatalf("ran %d entries around a send failing at frame %d", ran, failAt)
		}
	}
}
