package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
	"repro/internal/server"
)

// The kernels the benchmark drives, by their job-service registry names.
const (
	kEdit      = "editdist"
	kLCS       = "lcs"
	kNeedleman = "needleman"
	kSWGG      = "swgg"
	kNussinov  = "nussinov"
)

// job is one DP problem instance: the generated inputs (the only thing the
// system under test ever sees of the seed), the partition sizes the
// workload runs it with, and — once prepare has run — the digest of the
// benchmark's own sequential answer.
type job struct {
	kernel       string
	a, b         []byte // b unused by nussinov
	proc, thread dag.Size
	want         digest
}

// newJob draws a reproducible instance of kernel at size n. Pairwise
// kernels get a random DNA sequence and a copy mutated at the given rate;
// Nussinov gets a random RNA sequence.
func newJob(rng *rand.Rand, kernel string, n int, mutate float64, proc, thread int) *job {
	j := &job{kernel: kernel, proc: dag.Square(proc), thread: dag.Square(thread)}
	if kernel == kNussinov {
		j.a = dp.RandomRNA(n, rng.Int63())
		return j
	}
	j.a = dp.RandomDNA(n, rng.Int63())
	j.b = dp.MutateSeq(j.a, dp.DNAAlphabet, mutate, rng.Int63())
	return j
}

func (j *job) size() dag.Size {
	if j.kernel == kNussinov {
		return dag.Square(len(j.a))
	}
	return dag.Size{Rows: len(j.a), Cols: len(j.b)}
}

// cells is the number of cells the recurrence actually computes.
func (j *job) cells() int {
	if j.kernel == kNussinov {
		n := len(j.a)
		return n * (n + 1) / 2
	}
	return len(j.a) * len(j.b)
}

// reference runs the benchmark-owned sequential recurrence into buf.
func (j *job) reference(buf []int32) grid {
	sz := j.size()
	g := reshape(buf, sz.Rows, sz.Cols)
	switch j.kernel {
	case kEdit:
		refEditDistance(j.a, j.b, g)
	case kLCS:
		refLCS(j.a, j.b, g)
	case kNeedleman:
		refNeedleman(j.a, j.b, g)
	case kSWGG:
		refSWGG(j.a, j.b, g)
	case kNussinov:
		clear(g.cells)
		refNussinov(j.a, g)
	default:
		panic("benchmark: unknown kernel " + j.kernel)
	}
	return g
}

// scalar extracts the kernel's headline answer exactly as the job
// service's finishers do.
func (j *job) scalar(cell func(i, k int) int32, maxCell func() int32) int64 {
	sz := j.size()
	switch j.kernel {
	case kSWGG:
		return int64(maxCell())
	case kNussinov:
		return int64(cell(0, sz.Cols-1))
	default:
		return int64(cell(sz.Rows-1, sz.Cols-1))
	}
}

func (j *job) gridScalar(g grid) int64 {
	return j.scalar(
		func(i, k int) int32 { return g.row(i)[k] },
		func() int32 {
			best := int32(0)
			for _, c := range g.cells {
				if c > best {
					best = c
				}
			}
			return best
		})
}

// shipped is the shipped kernel over the job's inputs: its Problem and
// its dp.*.Sequential().
type shipped interface {
	Problem() core.Problem[int32]
	Sequential() [][]int32
}

func (j *job) shipped() shipped {
	switch j.kernel {
	case kEdit:
		return dp.NewEditDistance(j.a, j.b)
	case kLCS:
		return dp.NewLCS(j.a, j.b)
	case kNeedleman:
		return dp.NewNeedlemanWunsch(j.a, j.b)
	case kSWGG:
		return dp.NewSWGG(j.a, j.b)
	case kNussinov:
		return dp.NewNussinov(j.a)
	}
	panic("benchmark: unknown kernel " + j.kernel)
}

func (j *job) problem() core.Problem[int32] { return j.shipped().Problem() }

// spec is the job as the job service and the fleet workers receive it:
// explicit sequences, never a seed.
func (j *job) spec() server.JobSpec {
	return server.JobSpec{Kernel: j.kernel, SeqA: string(j.a), SeqB: string(j.b)}
}

// prepare computes the reference digest and asserts the benchmark's
// recurrence agrees with the shipped dp.*.Sequential() on this input.
func (j *job) prepare(buf []int32) error {
	g := j.reference(buf)
	j.want = g.digest(j.gridScalar(g))
	for i, row := range j.shipped().Sequential() {
		if hashCells(fnvOffset, row) != j.want.rows[i] {
			return fmt.Errorf("benchmark reference for %s disagrees with dp.Sequential at row %d", j.kernel, i)
		}
	}
	return nil
}

// storeDigest digests a finished block store without assembling it, so
// verification does not add a dense copy of the matrix to the process's
// peak memory.
func (j *job) storeDigest(st matrix.BlockStore[int32]) digest {
	geom := st.Geometry()
	sz := j.size()
	d := digest{rows: make([]uint64, sz.Rows)}
	for i := range d.rows {
		d.rows[i] = fnvOffset
	}
	zeros := make([]int32, geom.Block.Cols)
	best := int32(0)
	for br := 0; br < geom.Grid.Rows; br++ {
		for bc := 0; bc < geom.Grid.Cols; bc++ {
			pos := dag.Pos{Row: br, Col: bc}
			rect := geom.Rect(pos)
			b := st.Get(pos)
			for i := rect.Row0; i < rect.Row0+rect.Rows; i++ {
				cells := zeros[:rect.Cols]
				if b != nil {
					off := (i - rect.Row0) * rect.Cols
					cells = b.Cells[off : off+rect.Cols]
				}
				d.rows[i] = hashCells(d.rows[i], cells)
				for _, c := range cells {
					if c > best {
						best = c
					}
				}
			}
		}
	}
	d.scalar = j.scalar(st.Cell, func() int32 { return best })
	return d
}

// matches reports whether a finished store holds the reference answer:
// every row where set-up kept row sums, the scalar alone for the job
// service's generated jobs, which only ever answer a scalar.
func (j *job) matches(st matrix.BlockStore[int32]) bool {
	got := j.storeDigest(st)
	if j.want.rows == nil {
		return got.scalar == j.want.scalar
	}
	return got.equal(j.want)
}

// refTimer times the sequential references of a set of jobs against one
// reusable buffer. It repeats the whole set until the sample is at least
// minSample long, so a single scheduler hiccup cannot dominate a short
// reference.
type refTimer struct {
	buf       []int32
	minSample time.Duration
}

func newRefTimer(jobs []*job, minSample time.Duration) *refTimer {
	need := 0
	for _, j := range jobs {
		if c := j.size().Cells(); c > need {
			need = c
		}
	}
	return &refTimer{buf: make([]int32, need), minSample: minSample}
}

// time returns, per job, the fastest wall time of its sequential reference
// over at least two passes through jobs and as many more as the sample
// needs. Interference only ever adds time, so the minimum is the steady
// estimate of what the sequential program costs right now. The collector
// is run first: the garbage of the system's previous repetition is not the
// sequential program's to clean up.
func (t *refTimer) time(jobs []*job) []time.Duration {
	runtime.GC()
	per := make([]time.Duration, len(jobs))
	start := time.Now()
	for passes := 1; ; passes++ {
		last := time.Now()
		for i, j := range jobs {
			j.reference(t.buf)
			now := time.Now()
			if d := now.Sub(last); passes == 1 || d < per[i] {
				per[i] = d
			}
			last = now
		}
		if passes >= 2 && last.Sub(start) >= t.minSample {
			return per
		}
	}
}
