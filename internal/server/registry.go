// Package server is the multi-tenant DP job service over the EasyHPS
// runtime: a long-running job manager that runs many concurrent DP jobs on
// one long-lived fleet (its own in-process members, or an attached one), an
// HTTP API (submit / status / result / cancel / trace) in front of it, and
// a text-exposition metrics endpoint. The
// manager applies admission control — a bounded submission queue behind a
// fixed number of run slots — so overload surfaces as an immediate "busy"
// answer instead of unbounded buffering.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/fleet"
	"repro/internal/matrix"
)

// JobSpec is the wire description of one DP job: which kernel from the
// registry to run and its inputs. Sequence kernels take explicit SeqA/SeqB
// (SeqA alone for Nussinov) or generate reproducible random workloads of
// length N from Seed when the sequences are omitted.
type JobSpec struct {
	// Kernel is a registry name; see Registry.Names.
	Kernel string `json:"kernel"`
	// SeqA and SeqB are the explicit input sequences of the pairwise
	// kernels (editdist, lcs, needleman, swgg); Nussinov uses SeqA only.
	SeqA string `json:"seq_a,omitempty"`
	SeqB string `json:"seq_b,omitempty"`
	// N is the generated-workload size used when sequences are omitted:
	// sequence length for the alignment kernels, item count for knapsack.
	N int `json:"n,omitempty"`
	// Seed makes generated workloads reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Capacity is the knapsack capacity (defaults to 4*N).
	Capacity int `json:"capacity,omitempty"`
	// Weight and Priority are the fair-share scheduling knobs of the
	// pool every job runs on: Weight skews this job's share of it (<= 0
	// means 1; one whose reciprocal overflows is refused) and a higher
	// Priority class dispatches before lower ones entirely.
	Weight   float64 `json:"weight,omitempty"`
	Priority int     `json:"priority,omitempty"`
}

// Digest fingerprints the spec's kernel and inputs — the one identity of
// a job in every tool: the whole-job cache and the single-flight table
// coalesce on it, and it scopes a job's block entries in the result cache
// (easyhps-run, easyhps-launch and easyhps-serve alike, so one cache
// directory serves all three). Scheduling knobs (Weight, Priority) are
// excluded: they change how a job runs, never what it answers. The %q quoting keeps
// adjacent fields from aliasing (e.g. seq_a="ab",seq_b="c" vs
// seq_a="a",seq_b="bc").
func (s JobSpec) Digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("easyhps-job:1:%s:%q:%q:%d:%d:%d",
		s.Kernel, s.SeqA, s.SeqB, s.N, s.Seed, s.Capacity)))
	return hex.EncodeToString(h[:8])
}

// Request is the fleet submission of the job on partitions proc and thread
// (zero: the fleet's default): named after its kernel, the JSON spec in the
// attach frame — which a worker's RegistryBuilder turns back into the same
// problem — its fair-share knobs, and Digest scoping its entries in the
// fleet's result cache.
func (s JobSpec) Request(proc, thread dag.Size) fleet.JobRequest {
	enc, _ := json.Marshal(s) // strings, integers and a finite weight always encode
	return fleet.JobRequest{
		Name:     s.Kernel,
		Spec:     enc,
		Proc:     proc,
		Thread:   thread,
		Weight:   s.Weight,
		Priority: s.Priority,
		CacheKey: s.Digest(),
	}
}

// JobResult is the answer of a finished job: the kernel's headline scalar
// (edit distance, alignment score, pair count, ...) plus a human-readable
// description and the run's scheduling statistics.
type JobResult struct {
	Kernel string `json:"kernel"`
	// Value is the kernel-specific scalar extracted from the completed
	// matrix.
	Value int64 `json:"value"`
	// Detail says what Value means for this kernel.
	Detail string `json:"detail"`
	// Cells is the DP matrix size that was computed.
	Cells int64 `json:"cells"`
	// Cached marks a result served from the whole-job cache (or shared
	// from a coalesced in-flight computation) instead of computed for
	// this submission.
	Cached bool `json:"cached,omitempty"`
	// Stats summarizes the run.
	Stats RunStats `json:"stats"`
}

// RunStats is the JSON projection of core.Stats. SubTasks are the
// in-process members' sub-tasks and read 0 on an attached fleet; Messages
// and PayloadBytes are the job's task and result frames on any fleet.
type RunStats struct {
	Tasks           int64   `json:"tasks"`
	Dispatches      int64   `json:"dispatches"`
	SubTasks        int64   `json:"sub_tasks"`
	Redistributions int64   `json:"redistributions"`
	Messages        int64   `json:"messages"`
	PayloadBytes    int64   `json:"payload_bytes"`
	BatchMessages   int64   `json:"batch_messages,omitempty"`
	TaskBytes       int64   `json:"task_bytes,omitempty"`
	CacheHits       int64   `json:"cache_hits,omitempty"`
	CacheMisses     int64   `json:"cache_misses,omitempty"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
}

func projectStats(s core.Stats) RunStats {
	return RunStats{
		Tasks:           s.Tasks,
		Dispatches:      s.Dispatches,
		SubTasks:        s.SubTasks,
		Redistributions: s.Redistributions,
		Messages:        s.Messages,
		PayloadBytes:    s.PayloadBytes,
		BatchMessages:   s.BatchMessages,
		TaskBytes:       s.TaskBytes,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		ElapsedSeconds:  s.Elapsed.Seconds(),
	}
}

// buildFunc validates a spec and assembles the runnable problem plus the
// finisher that extracts the kernel's answer from the completed run.
type buildFunc func(spec JobSpec) (core.Problem[int32], finishFunc, error)

type finishFunc func(res *core.Result[int32]) JobResult

// KernelEntry describes one registered kernel.
type KernelEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// dims is the DP matrix a spec asks for, read off its fields without
	// generating an input: rows and columns, either of them 0 or less
	// where build refuses the spec anyway.
	dims  func(spec JobSpec) (rows, cols int64)
	build buildFunc
}

// Registry maps kernel names to builders over the internal/dp
// applications. It is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	kernels map[string]KernelEntry
}

// NewRegistry returns a registry populated with the built-in int32 DP
// kernels.
func NewRegistry() *Registry {
	r := &Registry{kernels: make(map[string]KernelEntry)}
	r.register(KernelEntry{
		Name:        "editdist",
		Description: "Levenshtein edit distance (wavefront)",
		dims:        pairDims,
		build: func(spec JobSpec) (core.Problem[int32], finishFunc, error) {
			a, b, err := pairInputs(spec, dp.DNAAlphabet)
			if err != nil {
				return core.Problem[int32]{}, nil, err
			}
			k := dp.NewEditDistance(a, b)
			return k.Problem(), scalarFinish(spec.Kernel, "edit distance", func(s matrix.BlockStore[int32]) int64 {
				return int64(s.Cell(len(a)-1, len(b)-1))
			}), nil
		},
	})
	r.register(KernelEntry{
		Name:        "lcs",
		Description: "longest common subsequence length (wavefront)",
		dims:        pairDims,
		build: func(spec JobSpec) (core.Problem[int32], finishFunc, error) {
			a, b, err := pairInputs(spec, dp.DNAAlphabet)
			if err != nil {
				return core.Problem[int32]{}, nil, err
			}
			k := dp.NewLCS(a, b)
			return k.Problem(), scalarFinish(spec.Kernel, "LCS length", func(s matrix.BlockStore[int32]) int64 {
				return int64(s.Cell(len(a)-1, len(b)-1))
			}), nil
		},
	})
	r.register(KernelEntry{
		Name:        "needleman",
		Description: "Needleman-Wunsch global alignment score (wavefront)",
		dims:        pairDims,
		build: func(spec JobSpec) (core.Problem[int32], finishFunc, error) {
			a, b, err := pairInputs(spec, dp.DNAAlphabet)
			if err != nil {
				return core.Problem[int32]{}, nil, err
			}
			k := dp.NewNeedlemanWunsch(a, b)
			return k.Problem(), scalarFinish(spec.Kernel, "global alignment score", func(s matrix.BlockStore[int32]) int64 {
				return int64(s.Cell(len(a)-1, len(b)-1))
			}), nil
		},
	})
	r.register(KernelEntry{
		Name:        "swgg",
		Description: "Smith-Waterman local alignment with general gaps (row/column)",
		dims:        pairDims,
		build: func(spec JobSpec) (core.Problem[int32], finishFunc, error) {
			a, b, err := pairInputs(spec, dp.DNAAlphabet)
			if err != nil {
				return core.Problem[int32]{}, nil, err
			}
			k := dp.NewSWGG(a, b)
			return k.Problem(), scalarFinish(spec.Kernel, "best local alignment score", func(s matrix.BlockStore[int32]) int64 {
				return int64(bestCell(s))
			}), nil
		},
	})
	r.register(KernelEntry{
		Name:        "nussinov",
		Description: "Nussinov RNA folding pair count (triangular)",
		dims: func(spec JobSpec) (int64, int64) {
			if spec.SeqA != "" {
				return int64(len(spec.SeqA)), int64(len(spec.SeqA))
			}
			return int64(spec.N), int64(spec.N)
		},
		build: func(spec JobSpec) (core.Problem[int32], finishFunc, error) {
			s := []byte(spec.SeqA)
			if len(s) == 0 {
				if spec.N <= 0 {
					return core.Problem[int32]{}, nil, fmt.Errorf("nussinov needs seq_a or n > 0")
				}
				s = dp.RandomRNA(spec.N, spec.Seed)
			}
			k := dp.NewNussinov(s)
			return k.Problem(), scalarFinish(spec.Kernel, "max base pairs", func(st matrix.BlockStore[int32]) int64 {
				return int64(st.Cell(0, len(s)-1))
			}), nil
		},
	})
	r.register(KernelEntry{
		Name:        "knapsack",
		Description: "0/1 knapsack best value (row-only)",
		dims: func(spec JobSpec) (int64, int64) {
			// items x (capacity+1)
			return int64(spec.N), min(knapsackCapacity(spec), math.MaxInt64-1) + 1
		},
		build: func(spec JobSpec) (core.Problem[int32], finishFunc, error) {
			if spec.N <= 0 {
				return core.Problem[int32]{}, nil, fmt.Errorf("knapsack needs n > 0 items")
			}
			k := dp.NewKnapsack(spec.N, int(knapsackCapacity(spec)), spec.Seed)
			return k.Problem(), scalarFinish(spec.Kernel, "best knapsack value", func(s matrix.BlockStore[int32]) int64 {
				return int64(s.Cell(spec.N-1, k.Capacity))
			}), nil
		},
	})
	return r
}

func (r *Registry) register(e KernelEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kernels[e.Name] = e
}

// Names lists the registered kernels sorted by name.
func (r *Registry) Names() []KernelEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]KernelEntry, 0, len(r.kernels))
	for _, e := range r.kernels {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Build validates spec against the registry and returns the runnable
// problem plus its finisher. A spec whose DP matrix would exceed maxCells
// is refused before any of its inputs is generated.
func (r *Registry) Build(spec JobSpec, maxCells int64) (core.Problem[int32], finishFunc, error) {
	r.mu.RLock()
	e, ok := r.kernels[spec.Kernel]
	r.mu.RUnlock()
	if !ok {
		return core.Problem[int32]{}, nil, fmt.Errorf("unknown kernel %q", spec.Kernel)
	}
	if w := spec.Weight; math.IsNaN(w) || math.IsInf(w, 0) || w > 0 && math.IsInf(1/w, 1) {
		// The pool charges a draw n/Weight: +Inf, and NaN after a refund.
		// And the spec travels as JSON, which has no non-finite number.
		return core.Problem[int32]{}, nil, fmt.Errorf("server: weight %g has no finite share", w)
	}
	if cells := matrixCells(e.dims(spec)); cells > maxCells {
		return core.Problem[int32]{}, nil, fmt.Errorf("server: job size %d cells exceeds limit %d", cells, maxCells)
	}
	return e.build(spec)
}

// matrixCells is rows x cols, 0 if either is not positive and
// math.MaxInt64 where the product overflows.
func matrixCells(rows, cols int64) int64 {
	switch {
	case rows <= 0 || cols <= 0:
		return 0
	case rows > math.MaxInt64/cols:
		return math.MaxInt64
	}
	return rows * cols
}

// pairDims is the matrix of a pairwise kernel: the two explicit sequences,
// or two generated ones of length N.
func pairDims(spec JobSpec) (int64, int64) {
	if spec.SeqA != "" || spec.SeqB != "" {
		return int64(len(spec.SeqA)), int64(len(spec.SeqB))
	}
	return int64(spec.N), int64(spec.N)
}

// knapsackCapacity is the spec's knapsack capacity: 4N unless it names one.
func knapsackCapacity(spec JobSpec) int64 {
	if spec.Capacity > 0 {
		return int64(spec.Capacity)
	}
	return matrixCells(4, int64(spec.N))
}

// pairInputs resolves the two input sequences of a pairwise kernel:
// explicit seq_a/seq_b, or a reproducible random pair of length N (the
// second sequence a 15%-mutated copy of the first, so alignments have
// realistic structure).
func pairInputs(spec JobSpec, alphabet string) ([]byte, []byte, error) {
	if spec.SeqA != "" && spec.SeqB != "" {
		return []byte(spec.SeqA), []byte(spec.SeqB), nil
	}
	if spec.SeqA != "" || spec.SeqB != "" {
		return nil, nil, fmt.Errorf("%s needs both seq_a and seq_b (or neither plus n)", spec.Kernel)
	}
	if spec.N <= 0 {
		return nil, nil, fmt.Errorf("%s needs seq_a+seq_b or n > 0", spec.Kernel)
	}
	a := dp.RandomSeq(alphabet, spec.N, spec.Seed)
	b := dp.MutateSeq(a, alphabet, 0.15, spec.Seed+1)
	return a, b, nil
}

// scalarFinish builds a finisher that reads one scalar off the completed
// blocks: extract reads the cells it needs through the result's store, and
// no dense matrix is assembled for one number. No input is empty here
// (pairInputs and the knapsack's n > 0 refuse one), so the dp accessors'
// empty-input answers are never needed.
func scalarFinish(kernel, detail string, extract func(matrix.BlockStore[int32]) int64) finishFunc {
	return func(res *core.Result[int32]) JobResult {
		reg := res.Store.Geometry().Region
		return JobResult{
			Kernel: kernel,
			Value:  extract(res.Store),
			Detail: detail,
			Cells:  int64(reg.Rows) * int64(reg.Cols),
			Stats:  projectStats(res.Stats),
		}
	}
}

// bestCell is dp.BestLocal's score by one walk over the stored blocks: the
// largest cell, or 0 when none is positive.
func bestCell(s matrix.BlockStore[int32]) int32 {
	g := s.Geometry()
	var best int32
	for p := (dag.Pos{}); p.Row < g.Grid.Rows; p.Row++ {
		for p.Col = 0; p.Col < g.Grid.Cols; p.Col++ {
			if b := s.Get(p); b != nil {
				for _, c := range b.Cells {
					best = max(best, c)
				}
			}
		}
	}
	return best
}
