// User-defined DAG Pattern Model: the paper's user API lets a programmer
// describe a recurrence the library patterns do not cover. This example
// implements the "maximum-weight staircase path" recurrence
//
//	S[i,j] = W[i,j] + max(S[i-1,j], S[i,j-1], S[i-2,j-1], S[i-1,j-2])
//
// whose knight-move reads reach beyond the wavefront pattern's data
// region, defines a Custom pattern for it, validates the pattern against
// the model invariants, and runs it on the in-process cluster.
//
// Run with: go run ./examples/customdag
package main

import (
	"fmt"
	"log"
	"math/rand"

	easyhps "repro"
)

// staircase is the kernel: a Custom pattern plus the recurrence.
type staircase struct {
	n int
	w [][]int32
}

func (s *staircase) Pattern() easyhps.Pattern {
	return easyhps.CustomPattern{
		PatternName: "staircase",
		// Block (r,c) reads blocks west, north — and, through the
		// knight moves, the north-west band two blocks away; declaring
		// the full row/column prefix keeps the data region simple and
		// provably covered (ValidatePattern checks it).
		PrecursorsFunc: func(g easyhps.Geometry, p easyhps.Pos, buf []easyhps.Pos) []easyhps.Pos {
			if p.Row > 0 {
				buf = append(buf, easyhps.Pos{Row: p.Row - 1, Col: p.Col})
			}
			if p.Col > 0 {
				buf = append(buf, easyhps.Pos{Row: p.Row, Col: p.Col - 1})
			}
			return buf
		},
		DataDepsFunc: func(g easyhps.Geometry, p easyhps.Pos, buf []easyhps.Pos) []easyhps.Pos {
			for r := p.Row - 2; r <= p.Row; r++ {
				for c := p.Col - 2; c <= p.Col; c++ {
					if r < 0 || c < 0 || (r == p.Row && c == p.Col) {
						continue
					}
					buf = append(buf, easyhps.Pos{Row: r, Col: c})
				}
			}
			return buf
		},
	}
}

func (s *staircase) Boundary(i, j int) int32 { return 0 }

func (s *staircase) Cell(v *easyhps.View32, i, j int) int32 {
	best := v.Get(i-1, j)
	for _, d := range [][2]int{{0, -1}, {-2, -1}, {-1, -2}} {
		if c := v.Get(i+d[0], j+d[1]); c > best {
			best = c
		}
	}
	return s.w[i][j] + best
}

func (s *staircase) sequential() [][]int32 {
	out := make([][]int32, s.n)
	for i := range out {
		out[i] = make([]int32, s.n)
	}
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 0
		}
		return out[i][j]
	}
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			best := get(i-1, j)
			for _, d := range [][2]int{{0, -1}, {-2, -1}, {-1, -2}} {
				if c := get(i+d[0], j+d[1]); c > best {
					best = c
				}
			}
			out[i][j] = s.w[i][j] + best
		}
	}
	return out
}

func main() {
	const n = 240
	rng := rand.New(rand.NewSource(99))
	s := &staircase{n: n, w: make([][]int32, n)}
	for i := range s.w {
		s.w[i] = make([]int32, n)
		for j := range s.w[i] {
			s.w[i][j] = int32(rng.Intn(100))
		}
	}

	// Validate the custom pattern against the model invariants on the
	// deployment geometry before trusting it.
	geom := easyhps.MatrixGeometry(easyhps.Square(n), easyhps.Square(30))
	if err := easyhps.ValidatePattern(s.Pattern(), geom); err != nil {
		log.Fatal("pattern invalid: ", err)
	}

	res, err := easyhps.Run(
		easyhps.NewProblem32("staircase", easyhps.Square(n), s),
		easyhps.Config{
			Slaves:          3,
			Threads:         4,
			ProcPartition:   easyhps.Square(30),
			ThreadPartition: easyhps.Square(6),
		})
	if err != nil {
		log.Fatal(err)
	}

	got := res.Matrix()
	want := s.sequential()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				log.Fatalf("mismatch at (%d,%d): %d != %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	fmt.Printf("staircase path weight %d; parallel == sequential on all %d cells (%v)\n",
		got[n-1][n-1], n*n, res.Stats.Elapsed)
}
