package dp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// Viterbi decodes the most likely hidden-state path of an HMM in log
// space. Matrix row t is time step t, column s a hidden state:
//
//	V[t,s] = logEmit[s][obs[t]] + max_{s'} (V[t-1,s'] + logTrans[s'][s])
//
// Every cell reads the ENTIRE previous row, so the kernel uses the PrevRow
// pattern (one-row blocks, rows pipelined, columns parallel). Cells are
// float64, exercising the runtime's float path.
type Viterbi struct {
	// LogInit[s] is the log initial probability of state s.
	LogInit []float64
	// LogTrans[s'][s] is the log transition probability s' -> s.
	LogTrans [][]float64
	// LogEmit[s][o] is the log emission probability of symbol o in
	// state s.
	LogEmit [][]float64
	// Obs is the observation sequence (symbol indices).
	Obs []int
}

// NewViterbi builds a reproducible random HMM with the given numbers of
// states and emission symbols and a random observation sequence of length
// steps.
func NewViterbi(states, symbols, steps int, seed int64) *Viterbi {
	rng := rand.New(rand.NewSource(seed))
	v := &Viterbi{
		LogInit:  randLogDist(rng, states),
		LogTrans: make([][]float64, states),
		LogEmit:  make([][]float64, states),
		Obs:      make([]int, steps),
	}
	for s := 0; s < states; s++ {
		v.LogTrans[s] = randLogDist(rng, states)
		v.LogEmit[s] = randLogDist(rng, symbols)
	}
	for t := range v.Obs {
		v.Obs[t] = rng.Intn(symbols)
	}
	return v
}

// randLogDist returns the log of a random probability distribution.
func randLogDist(rng *rand.Rand, n int) []float64 {
	raw := make([]float64, n)
	var sum float64
	for i := range raw {
		raw[i] = rng.Float64() + 1e-3
		sum += raw[i]
	}
	for i := range raw {
		raw[i] = math.Log(raw[i] / sum)
	}
	return raw
}

// States returns the number of hidden states.
func (v *Viterbi) States() int { return len(v.LogInit) }

// Size returns the DP matrix extent: steps x states.
func (v *Viterbi) Size() dag.Size { return dag.Size{Rows: len(v.Obs), Cols: v.States()} }

// Pattern implements core.Kernel.
func (v *Viterbi) Pattern() dag.Pattern { return dag.PrevRow{} }

// Boundary implements core.Kernel; only the virtual row above t=0 is ever
// read, and the kernel folds the initial distribution there itself, so
// reads outside resolve to -Inf-like.
func (v *Viterbi) Boundary(i, j int) float64 { return math.Inf(-1) }

// Cell implements core.Kernel.
func (v *Viterbi) Cell(m *matrix.View[float64], t, s int) float64 {
	if t == 0 {
		return v.LogInit[s] + v.LogEmit[s][v.Obs[0]]
	}
	best := math.Inf(-1)
	rowRuns(m, t-1, 0, v.States(), func(sp int, prev []float64) {
		for x, p := range prev {
			if c := p + v.LogTrans[sp+x][s]; c > best {
				best = c
			}
		}
	})
	return best + v.LogEmit[s][v.Obs[t]]
}

// Problem wraps the kernel for the runtime.
func (v *Viterbi) Problem() core.Problem[float64] {
	return core.Problem[float64]{
		Name:   fmt.Sprintf("viterbi-%dx%d", len(v.Obs), v.States()),
		Size:   v.Size(),
		Kernel: v,
		Codec:  matrix.BinaryCodec[float64]{},
	}
}

// Sequential is the reference implementation.
func (v *Viterbi) Sequential() [][]float64 {
	steps, states := len(v.Obs), v.States()
	m := make([][]float64, steps)
	for t := range m {
		m[t] = make([]float64, states)
	}
	for s := 0; s < states; s++ {
		m[0][s] = v.LogInit[s] + v.LogEmit[s][v.Obs[0]]
	}
	for t := 1; t < steps; t++ {
		for s := 0; s < states; s++ {
			best := math.Inf(-1)
			for sp := 0; sp < states; sp++ {
				if c := m[t-1][sp] + v.LogTrans[sp][s]; c > best {
					best = c
				}
			}
			m[t][s] = best + v.LogEmit[s][v.Obs[t]]
		}
	}
	return m
}

// BestPath recovers the most likely state sequence from a completed
// matrix by backtracking.
func (v *Viterbi) BestPath(m [][]float64) []int {
	steps, states := len(v.Obs), v.States()
	if steps == 0 {
		return nil
	}
	path := make([]int, steps)
	best := math.Inf(-1)
	for s := 0; s < states; s++ {
		if m[steps-1][s] > best {
			best = m[steps-1][s]
			path[steps-1] = s
		}
	}
	for t := steps - 1; t > 0; t-- {
		s := path[t]
		target := m[t][s] - v.LogEmit[s][v.Obs[t]]
		for sp := 0; sp < states; sp++ {
			if almostEq(m[t-1][sp]+v.LogTrans[sp][s], target) {
				path[t-1] = sp
				break
			}
		}
	}
	return path
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
