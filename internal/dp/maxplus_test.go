package dp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/testseed"
)

// The dispatched maxPlus — the AVX2 body on a CPU that has one, outside
// race builds — answers what the portable body does, bit for bit: at every
// width tail mod 8 and every height remainder mod 4, over a stride-0 ramp
// and strides wider than out, with sums near MinInt32 and MaxInt32 that
// wrap. And it writes nothing outside out.
func TestMaxPlusBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 56)))
	edges := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	draw := func(n int) []int32 {
		s := make([]int32, n)
		for k := range s {
			if rng.Intn(2) == 0 {
				s[k] = edges[rng.Intn(len(edges))]
			} else {
				s[k] = int32(rng.Uint32())
			}
		}
		return s
	}
	for w := 1; w <= 80; w++ {
		for h := 0; h <= 70; h++ {
			for _, stride := range []int{0, w, w + 1 + rng.Intn(9)} {
				left, cells := draw(h), draw(max(h-1, 0)*stride+w)
				want := draw(w + 2) // out is want[1 : w+1], between two guards
				got := slices.Clone(want)
				maxPlusGo(want[1:w+1], left, cells, stride)
				maxPlus(got[1:w+1], left, cells, stride)
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("width %d, %d rows, stride %d: cell %d of out (guards at -1 and %d) is %d, the portable body's %d",
							w, h, stride, k-1, w, got[k], want[k])
					}
				}
			}
		}
	}
}

// SWGG's Row weighs every candidate of the recurrence, however far away: a
// segment wider than the kernel's scratch rows, under a band taller than
// them and after a run longer than them, is swept a chunk at a time and
// answers cell for cell what the recurrence does over the same block, and
// so does a segment one cell wide, or a group wide less or more one cell,
// or two groups and one cell. The block holds arbitrary cells, so sums wrap
// and any candidate may win; or small ones beside a rising row to the
// left, whose nearest cell wins each cell's row scan; or small ones under a
// tall column over the segment's first cell, which wins every later cell
// of the segment.
func TestSWGGRowWeighsEveryCandidate(t *testing.T) {
	const n = 2*sweep + 88
	rng := rand.New(rand.NewSource(testseed.Seed(t, 57)))
	s := NewSWGG(RandomDNA(n, 1), RandomDNA(n, 2))
	blk := matrix.NewBlock[int32](dag.Rect{Rows: n, Cols: n})
	v := matrix.NewView(blk, nil, s.Pattern(), s.Size(), s.Boundary)
	for _, seg := range [][3]int{
		{n - 1, sweep + 20, n}, {n - 1, 0, n}, {sweep + 3, 5, 18},
		{n - 1, 40, 41}, {9, 100, 107}, {sweep + 3, 200, 209}, {n - 2, sweep + 5, sweep + 22},
	} {
		i, j0, j1 := seg[0], seg[1], seg[2]
		for fill := range 3 {
			for k := range blk.Cells {
				if blk.Cells[k] = int32(rng.Uint32()); fill > 0 {
					blk.Cells[k] = rng.Int31n(1 << 16)
				}
			}
			for c := 0; fill == 1 && c < j0; c++ {
				blk.Cells[i*n+c] = 1<<20 + 4*int32(c)
			}
			for r := 0; fill == 2 && r < i; r++ {
				blk.Cells[r*n+j0] = 1 << 20
			}
			out := make([]int32, j1-j0)
			s.Row(v, i, j0, out)
			h := func(r, c int) int32 {
				switch {
				case r < 0 || c < 0:
					return 0
				case r == i && c >= j0:
					return out[c-j0]
				}
				return blk.At(r, c)
			}
			for j := j0; j < j1; j++ {
				want := max(0, h(i-1, j-1)+s.score(i, j))
				for k := 1; k <= j; k++ {
					want = max(want, h(i, j-k)-s.gap(k))
				}
				for k := 1; k <= i; k++ {
					want = max(want, h(i-k, j)-s.gap(k))
				}
				if out[j-j0] != want {
					t.Fatalf("segment of row %d from column %d (fill %d): cell %d is %d, the recurrence %d",
						i, j0, fill, j, out[j-j0], want)
				}
			}
		}
	}
}

// Nussinov's Row weighs every candidate of the recurrence: segments 1 to 80
// cells wide, so every remainder of a group, off the diagonal and starting
// on it, answer cell for cell what the recurrence does over the same
// cells. The cells sit in one block, a diagonal block with holes, or in
// strips of rows whose edges cut the bands the kernel sweeps; they are
// arbitrary, so sums wrap and any candidate may win, or small, or a mix of
// small ones and ones at the edges of int32.
func TestNussinovRowWeighsEveryCandidate(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(testseed.Seed(t, 59)))
	nu := NewNussinov(RandomRNA(n, 3))
	nu.MinLoop = 1
	f := make([]int32, n*n)
	whole := dag.Rect{Rows: n, Cols: n}
	strips := []dag.Rect{{Rows: 37, Cols: n}, {Row0: 37, Rows: 64, Cols: n}, {Row0: 101, Rows: 13, Cols: n}, {Row0: 114, Rows: n - 114, Cols: n}}
	edges := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	block := func(r dag.Rect) *matrix.Block[int32] {
		b := matrix.NewBlock[int32](r)
		for i := range r.Rows {
			copy(b.Cells[i*n:(i+1)*n], f[(r.Row0+i)*n:])
		}
		return b
	}
	for w := 1; w <= 80; w++ {
		for fill := range 3 {
			for k := range f {
				switch f[k] = int32(rng.Uint32()); {
				case fill == 1 || fill == 2 && rng.Intn(4) > 0:
					f[k] = rng.Int31n(1 << 16)
				case fill == 2:
					f[k] = edges[rng.Intn(len(edges))]
				}
			}
			i := rng.Intn(n - w + 1)
			for _, j0 := range []int{i, i + rng.Intn(n-w-i+1)} {
				for _, cut := range []bool{false, true} {
					var v *matrix.View[int32]
					if !cut {
						v = matrix.NewView(block(whole), nil, nu.Pattern(), nu.Size(), nu.Boundary)
					} else {
						var out *matrix.Block[int32]
						var in []*matrix.Block[int32]
						for _, r := range strips {
							if r.Contains(i, 0) {
								out = block(r)
							} else {
								in = append(in, block(r))
							}
						}
						v = matrix.NewView(out, in, nu.Pattern(), nu.Size(), nu.Boundary)
					}
					out := make([]int32, w)
					nu.Row(v, i, j0, out)
					h := func(r, c int) int32 {
						switch {
						case r > c:
							return 0 // a hole reads as the boundary
						case r == i && c >= j0:
							return out[c-j0]
						}
						return f[r*n+c]
					}
					for j := j0; j < j0+w; j++ {
						want := int32(math.MinInt32)
						if j == i {
							want = 0
						} else if nu.CanPair(i, j) {
							want = h(i+1, j-1) + 1
						}
						for k := i; k < j; k++ {
							want = max(want, h(i, k)+h(k+1, j))
						}
						if out[j-j0] != want {
							t.Fatalf("%d-cell segment of row %d from column %d (fill %d, strips %v): cell %d is %d, the recurrence %d",
								w, i, j0, fill, cut, j, out[j-j0], want)
						}
					}
				}
			}
		}
	}
}
