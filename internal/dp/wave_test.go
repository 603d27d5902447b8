package dp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/testseed"
)

// minGap is the most negative gap whose domain holds a cell: every north
// and west cell, in scan form, at least MinInt32 - 9*gap <= MaxInt32.
const minGap = -(math.MaxInt32 - math.MinInt32) / 9

// The dispatched wave scan — the AVX2 body on a CPU that has one, outside
// race builds — answers what the portable body does, bit for bit, inside
// the domain stated on wave: at every width from 1 to 80 (each tail mod 8),
// under each wavefront kernel's constants and random ones, with north and
// west cells at the domain's low edge and at MaxInt32, diagonals and
// substitution scores anywhere (their sums wrap alike in both bodies), and
// letters that match often. And it writes nothing outside out.
func TestWaveBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 58)))
	kernels := []wave{
		newWave(0, -1, -1, -1, 0),          // EditDistance
		newWave(1, math.MinInt32, 0, 0, 0), // LCS
		newWave(1, -1, -2, 0, 0),           // NeedlemanWunsch
		{0, 0, 0, 0, true},                 // gap 0: o is a running max
		{math.MaxInt32, math.MinInt32, minGap, -1, true},
	}
	any32 := func() int32 {
		if rng.Intn(3) == 0 {
			return []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}[rng.Intn(5)]
		}
		return int32(rng.Uint32())
	}
	for trial := range 200 {
		k := wave{any32(), any32(), -rng.Int31n(1 << uint(rng.Intn(28)+1)), any32(), true}
		if trial < len(kernels) {
			k = kernels[trial]
		}
		if !k.exact {
			t.Fatalf("kernel constants %+v left the domain", k)
		}
		low := math.MinInt32 - 9*int64(k.gap)
		cell := func() int32 { // in scan form, inside the domain
			switch rng.Intn(4) {
			case 0:
				return int32(low + rng.Int63n(3))
			case 1:
				return math.MaxInt32 - rng.Int31n(3)
			}
			return int32(low + rng.Int63n(math.MaxInt32-low+1))
		}
		for w := 1; w <= 80; w++ {
			north, b := make([]int32, w), RandomDNA(w, rng.Int63())
			for x := range north {
				north[x] = cell() ^ k.flip
			}
			a, west, diag := b[rng.Intn(w)], cell()^k.flip, any32()
			want := make([]int32, w+2) // out is want[1 : w+1], between two guards
			for x := range want {
				want[x] = any32()
			}
			got := slices.Clone(want)
			k.scanGo(want[1:w+1], north, b, a, west, diag)
			k.scan(got[1:w+1], north, b, a, west, diag)
			for x := range got {
				if got[x] != want[x] {
					t.Fatalf("constants %+v, width %d: cell %d of out (guards at -1 and %d) is %d, the portable body's %d",
						k, w, x-1, w, got[x], want[x])
				}
			}
		}
	}
}

// Needleman-Wunsch's constants put its Row inside the vector body's domain
// or send it to the portable body: the vector body only while Gap is no
// bonus and its cells, down to -(len(A)+len(B))*Gap, leave room for nine
// gaps more.
func TestNeedlemanWunschChoosesItsBody(t *testing.T) {
	a := RandomDNA(100, 1)
	nw := func(gap int32) *NeedlemanWunsch {
		k := NewNeedlemanWunsch(a, a)
		k.Gap = gap
		return k
	}
	for _, c := range []struct {
		name  string
		k     wave
		exact bool
	}{
		{"needleman", nw(2).wave(), true},
		{"needleman, gap 0", nw(0).wave(), true},
		{"needleman, a gap bonus", nw(-1).wave(), false},
		{"needleman, gap 1<<23", nw(1 << 23).wave(), true},
		{"needleman, gap 1<<24", nw(1 << 24).wave(), false},
	} {
		if c.k.exact != c.exact {
			t.Errorf("%s: exact is %v, want %v", c.name, c.k.exact, c.exact)
		}
	}
}

// Each wavefront kernel's Row answers what its recurrence does, cell for
// cell, on segments whose row above arrives in runs from several blocks of
// random widths (so a scan's west and diagonal come from the run before,
// and runs end off the vector body's eight-cell stride), starting at row 0
// and column 0 and inside the matrix. Needleman-Wunsch also runs under
// random constants, large ones inside the domain, and a gap bonus and a
// gap large enough to wrap, which leave it.
func TestWaveRowsFollowTheirRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 59)))
	const rows, cols = 9, 150
	for trial := range 30 {
		a, b := RandomDNA(rows, rng.Int63()), MutateSeq(RandomDNA(cols, rng.Int63()), DNAAlphabet, 0.5, rng.Int63())
		nw := NewNeedlemanWunsch(a, b)
		nw.Match, nw.Mismatch, nw.Gap = rng.Int31n(1<<20)-1<<19, rng.Int31n(1<<20)-1<<19, rng.Int31n(1<<20)
		if trial%5 == 4 {
			nw.Gap = []int32{-3, math.MaxInt32 / 8}[trial/5%2]
		}
		for _, k := range []interface {
			core.Kernel[int32]
			Size() dag.Size
			Sequential() [][]int32
		}{NewEditDistance(a, b), NewLCS(a, b), NewNeedlemanWunsch(a, b), nw} {
			want := k.Sequential()
			for _, i := range []int{0, 1 + rng.Intn(rows-1)} {
				j0 := rng.Intn(cols / 2)
				if trial%2 == 0 {
					j0 = 0
				}
				j1 := j0 + 1 + rng.Intn(cols-j0)
				var in []*matrix.Block[int32]
				piece := func(r, c0, c1 int) {
					blk := matrix.NewBlock[int32](dag.Rect{Row0: r, Col0: c0, Rows: 1, Cols: c1 - c0})
					copy(blk.Cells, want[r][c0:c1])
					in = append(in, blk)
				}
				if j0 > 0 {
					piece(i, j0-1, j0)
				}
				for c := max(j0-1, 0); i > 0 && c < j1; {
					next := min(c+1+rng.Intn(20), j1)
					piece(i-1, c, next)
					c = next
				}
				out := matrix.NewBlock[int32](dag.Rect{Row0: i, Col0: j0, Rows: 1, Cols: j1 - j0})
				k.Row(matrix.NewView(out, in, k.Pattern(), k.Size(), k.Boundary), i, j0, out.Cells)
				if got := out.Cells; !slices.Equal(got, want[i][j0:j1]) {
					t.Fatalf("trial %d, %T %s: row %d from column %d over %d north runs is\n%v\nwant\n%v",
						trial, k, constants(k), i, j0, len(in), got, want[i][j0:j1])
				}
			}
		}
	}
}

func constants(k any) string {
	if nw, ok := k.(*NeedlemanWunsch); ok {
		return fmt.Sprintf("(%d, %d, %d)", nw.Match, nw.Mismatch, nw.Gap)
	}
	return ""
}
