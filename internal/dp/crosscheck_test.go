package dp

import (
	"testing"
	"testing/quick"
)

// LCS and edit distance with substitutions forbidden relate by
// |a| + |b| - 2*LCS = insert/delete-only distance; our edit distance
// allows substitution, so it is a lower bound: D <= |a|+|b|-2L and
// D >= max(|a|,|b|) - L.
func TestLCSEditDistanceRelation(t *testing.T) {
	f := func(seed int64, la, lb uint8) bool {
		a := RandomDNA(int(la%20)+1, seed)
		b := RandomDNA(int(lb%20)+1, seed+1)
		l := NewLCS(a, b)
		e := NewEditDistance(a, b)
		lv := int(l.Sequential()[len(a)-1][len(b)-1])
		dv := int(e.Distance(e.Sequential()))
		if dv > len(a)+len(b)-2*lv {
			return false
		}
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		return dv >= max-lv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// SWGG with gaps priced out of existence degenerates to the best ungapped
// local alignment, which a direct scan can verify.
func TestSWGGNoGapLimit(t *testing.T) {
	a := RandomDNA(30, 71)
	b := RandomDNA(30, 72)
	s := NewSWGG(a, b)
	s.GapOpen, s.GapExt = 10000, 10000
	got, _, _ := BestLocal(s.Sequential())

	// Brute force: the best ungapped segment ending at any (i, j) is the
	// maximum-sum suffix of its diagonal run.
	var want int32
	for i := range a {
		for j := range b {
			if best := bestSuffix(a, b, i, j, s.Match, s.Mismatch); best > want {
				want = best
			}
		}
	}
	if got != want {
		t.Fatalf("no-gap SWGG = %d, brute force diagonal = %d", got, want)
	}
}

// bestSuffix returns the maximum-sum suffix of the diagonal run ending at
// (i, j).
func bestSuffix(a, b []byte, i, j int, match, mismatch int32) int32 {
	var sum, best int32
	for k := 0; i-k >= 0 && j-k >= 0; k++ {
		if a[i-k] == b[j-k] {
			sum += match
		} else {
			sum += mismatch
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// Nussinov is monotone: extending the window can never lose pairs.
func TestNussinovMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		s := RandomRNA(int(n%40)+5, seed)
		nu := NewNussinov(s)
		m := nu.Sequential()
		for i := 0; i < len(s); i++ {
			for j := i + 1; j < len(s); j++ {
				if m[i][j] < m[i][j-1] || (i+1 <= j && m[i][j] < m[i+1][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Matrix chain with equal dimensions: every parenthesization costs the
// same, so the DP must return (n-1) * d^3.
func TestMatrixChainUniformDims(t *testing.T) {
	const n, d = 7, 5
	dims := make([]int64, n+1)
	for i := range dims {
		dims[i] = d
	}
	m := &MatrixChain{Dims: dims}
	if got, want := m.Sequential()[0][n-1], int64(n-1)*d*d*d; got != want {
		t.Fatalf("uniform chain cost = %d, want %d", got, want)
	}
}

func TestNeedlemanWunschSelfAlignment(t *testing.T) {
	a := []byte("ACGTACGT")
	nw := NewNeedlemanWunsch(a, a)
	if got := nw.GlobalScore(nw.Sequential()); got != int32(len(a))*nw.Match {
		t.Fatalf("self score = %d", got)
	}
	al := nw.Traceback(nw.Sequential())
	if string(al.RowA) != string(a) || string(al.RowB) != string(a) {
		t.Fatalf("self traceback introduced gaps: %s / %s", al.RowA, al.RowB)
	}
}

// With match 0, mismatch -1, gap 1, NW's score is the negated edit
// distance — a third independent implementation agreeing with the other
// two.
func TestNeedlemanWunschEqualsNegatedEditDistance(t *testing.T) {
	f := func(seed int64, la, lb uint8) bool {
		a := RandomDNA(int(la%24)+1, seed)
		b := RandomDNA(int(lb%24)+1, seed+1)
		nw := &NeedlemanWunsch{A: a, B: b, Match: 0, Mismatch: -1, Gap: 1}
		e := NewEditDistance(a, b)
		return nw.GlobalScore(nw.Sequential()) == -e.Distance(e.Sequential())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The traceback's alignment must rescore to the matrix optimum.
func TestNeedlemanWunschTracebackRescores(t *testing.T) {
	a := RandomDNA(40, 73)
	b := MutateSeq(a, DNAAlphabet, 0.2, 74)
	nw := NewNeedlemanWunsch(a, b)
	d := nw.Sequential()
	al := nw.Traceback(d)
	if len(al.RowA) != len(al.RowB) {
		t.Fatal("ragged alignment")
	}
	var score int32
	for k := range al.RowA {
		ca, cb := al.RowA[k], al.RowB[k]
		switch {
		case ca == '-' || cb == '-':
			score -= nw.Gap
		case ca == cb:
			score += nw.Match
		default:
			score += nw.Mismatch
		}
	}
	if score != al.Score || score != nw.GlobalScore(d) {
		t.Fatalf("traceback rescores to %d, matrix says %d", score, nw.GlobalScore(d))
	}
	// Stripping gaps must recover the inputs.
	strip := func(row []byte) string {
		out := make([]byte, 0, len(row))
		for _, c := range row {
			if c != '-' {
				out = append(out, c)
			}
		}
		return string(out)
	}
	if strip(al.RowA) != string(a) || strip(al.RowB) != string(b) {
		t.Fatal("alignment rows do not spell the input sequences")
	}
}
