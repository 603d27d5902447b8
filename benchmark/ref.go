package main

// Benchmark-owned sequential references. These are the plain loop nests of
// dp.*.Sequential() at the commit that defined the benchmark, copied here
// so that no later change to internal/dp can move the denominator of
// speedup_vs_seq: a claim PR may not edit benchmark/. They write into a
// caller-supplied buffer, so timing them measures the recurrence and not
// the allocator. Set-up asserts each equals dp.*.Sequential() on the
// workload's own inputs.

// Scoring constants of the dp constructors (dp.NewSWGG, dp.NewNeedlemanWunsch,
// dp.NewNussinov) the references mirror.
const (
	swggMatch, swggMismatch, swggGapOpen, swggGapExt = 2, -1, 2, 1
	nwMatch, nwMismatch, nwGap                       = 1, -1, 2
	nussinovMinLoop                                  = 3
)

// grid is a dense row-major matrix over a reusable backing slice.
type grid struct {
	rows, cols int
	cells      []int32
}

// reshape points g at an r x c prefix of buf, which must be large enough.
func reshape(buf []int32, r, c int) grid {
	return grid{rows: r, cols: c, cells: buf[:r*c]}
}

func (g grid) row(i int) []int32 { return g.cells[i*g.cols : (i+1)*g.cols] }

func refEditDistance(a, b []byte, g grid) {
	for i := range a {
		cur := g.row(i)
		for j := range b {
			var diag, up, left int32
			switch {
			case i == 0 && j == 0:
				diag, up, left = 0, 1, 1
			case i == 0:
				diag, up, left = int32(j), int32(j)+1, cur[j-1]
			case j == 0:
				prev := g.row(i - 1)
				diag, up, left = int32(i), prev[0], int32(i)+1
			default:
				prev := g.row(i - 1)
				diag, up, left = prev[j-1], prev[j], cur[j-1]
			}
			best := diag
			if a[i] != b[j] {
				best++
			}
			if up+1 < best {
				best = up + 1
			}
			if left+1 < best {
				best = left + 1
			}
			cur[j] = best
		}
	}
}

func refLCS(a, b []byte, g grid) {
	for i := range a {
		cur := g.row(i)
		for j := range b {
			var diag, up, left int32
			if i > 0 {
				up = g.row(i - 1)[j]
				if j > 0 {
					diag = g.row(i - 1)[j-1]
				}
			}
			if j > 0 {
				left = cur[j-1]
			}
			switch {
			case a[i] == b[j]:
				cur[j] = diag + 1
			case up > left:
				cur[j] = up
			default:
				cur[j] = left
			}
		}
	}
}

func refNeedleman(a, b []byte, g grid) {
	for i := range a {
		cur := g.row(i)
		for j := range b {
			var diag, up, left int32
			switch {
			case i == 0 && j == 0:
				diag, up, left = 0, -nwGap, -nwGap
			case i == 0:
				diag, up, left = -int32(j)*nwGap, -int32(j+1)*nwGap, cur[j-1]
			case j == 0:
				diag, up, left = -int32(i)*nwGap, g.row(i - 1)[0], -int32(i+1)*nwGap
			default:
				prev := g.row(i - 1)
				diag, up, left = prev[j-1], prev[j], cur[j-1]
			}
			best := diag + nwMismatch
			if a[i] == b[j] {
				best = diag + nwMatch
			}
			if c := up - nwGap; c > best {
				best = c
			}
			if c := left - nwGap; c > best {
				best = c
			}
			cur[j] = best
		}
	}
}

func refSWGG(a, b []byte, g grid) {
	for i := range a {
		cur := g.row(i)
		for j := range b {
			best := int32(0)
			var diag int32
			if i > 0 && j > 0 {
				diag = g.row(i - 1)[j-1]
			}
			s := int32(swggMismatch)
			if a[i] == b[j] {
				s = swggMatch
			}
			if d := diag + s; d > best {
				best = d
			}
			for k := 1; k <= j; k++ {
				if c := cur[j-k] - (swggGapOpen + swggGapExt*int32(k)); c > best {
					best = c
				}
			}
			for k := 1; k <= i; k++ {
				if c := g.cells[(i-k)*g.cols+j] - (swggGapOpen + swggGapExt*int32(k)); c > best {
					best = c
				}
			}
			cur[j] = best
		}
	}
}

func canPair(x, y byte) bool {
	if x > y {
		x, y = y, x
	}
	switch {
	case x == 'A' && (y == 'U' || y == 'T'):
		return true
	case x == 'C' && y == 'G':
		return true
	case x == 'G' && y == 'U':
		return true
	}
	return false
}

// refNussinov fills the upper triangle by increasing span; g must be
// zeroed by the caller (cells on and below the diagonal stay 0).
func refNussinov(s []byte, g grid) {
	n := len(s)
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			ri := g.row(i)
			best := g.row(i + 1)[j]
			if c := ri[j-1]; c > best {
				best = c
			}
			if span > nussinovMinLoop && canPair(s[i], s[j]) {
				if c := g.row(i + 1)[j-1] + 1; c > best {
					best = c
				}
			}
			for k := i + 1; k < j; k++ {
				if c := ri[k] + g.cells[(k+1)*g.cols+j]; c > best {
					best = c
				}
			}
			ri[j] = best
		}
	}
}

// digest is what set-up keeps of a reference matrix: one FNV-1a sum per
// row plus the scalar the job service would answer.
type digest struct {
	rows   []uint64
	scalar int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashCells(h uint64, cells []int32) uint64 {
	for _, c := range cells {
		h = (h ^ uint64(uint32(c))) * fnvPrime
	}
	return h
}

func (g grid) digest(scalar int64) digest {
	d := digest{rows: make([]uint64, g.rows), scalar: scalar}
	for i := range d.rows {
		d.rows[i] = hashCells(fnvOffset, g.row(i))
	}
	return d
}

func (d digest) equal(o digest) bool {
	if d.scalar != o.scalar || len(d.rows) != len(o.rows) {
		return false
	}
	for i := range d.rows {
		if d.rows[i] != o.rows[i] {
			return false
		}
	}
	return true
}
