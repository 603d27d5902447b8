package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own files, around the exported calls;
// spans inside the program are a later change (ROADMAP, time attribution).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Job    string `json:"job"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the recorder was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how the untraced run stays untraced.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(parent int, job, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, StartNS: now, EndNS: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// timed records fn as a child span of parent and returns its duration.
// With a nil recorder it only times.
func (r *recorder) timed(parent int, job, name string, fn func()) time.Duration {
	id := r.begin(parent, job, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d
}

// selfTimes returns, per span name, the total duration of its spans minus
// the part their child spans cover, restricted to the subtree under root.
func (r *recorder) selfTimes(root int) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	under := map[int]bool{root: true}
	childSum := make(map[int]int64)
	for _, s := range r.spans { // parents are always recorded before children
		if under[s.Parent] {
			under[s.ID] = true
			childSum[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range r.spans {
		if under[s.ID] {
			self[s.Name] += time.Duration(s.EndNS - s.StartNS - childSum[s.ID])
		}
	}
	return self
}

func (r *recorder) duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id-1].EndNS - r.spans[id-1].StartNS)
}

// write stores the spans as JSON under dir, creating it if needed.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
