package dp

import (
	"math"
	"testing"
	"testing/quick"
)

// --- CYK ---

func TestCYKBalancedParens(t *testing.T) {
	g := ParenGrammar()
	cases := map[string]bool{
		"()":       true,
		"(())":     true,
		"()()":     true,
		"(()())()": true,
		"(":        false,
		")(":       false,
		"(()":      false,
		"())":      false,
	}
	for in, want := range cases {
		c := NewCYK(g, []byte(in))
		if got := c.Accepts(c.Sequential()); got != want {
			t.Errorf("CYK(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestCYKMatchesRecursiveParser(t *testing.T) {
	// Random balanced/unbalanced strings against a direct checker.
	f := func(seed int64, length uint8) bool {
		n := int(length%16) + 2
		s := RandomSeq("()", n, seed)
		c := NewCYK(ParenGrammar(), s)
		return c.Accepts(c.Sequential()) == balanced(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func balanced(s []byte) bool {
	depth := 0
	for _, c := range s {
		if c == '(' {
			depth++
		} else {
			depth--
		}
		if depth < 0 {
			return false
		}
	}
	return depth == 0 && len(s) > 0
}

func TestRandomGrammarDeterministic(t *testing.T) {
	g1 := RandomGrammar(8, 20, "ab", 3)
	g2 := RandomGrammar(8, 20, "ab", 3)
	if len(g1.Rules) != len(g2.Rules) || g1.Rules[0] != g2.Rules[0] {
		t.Fatal("random grammar not reproducible")
	}
	in := RandomSeq("ab", 12, 4)
	c1, c2 := NewCYK(g1, in), NewCYK(g2, in)
	m1, m2 := c1.Sequential(), c2.Sequential()
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m2[i][j] {
				t.Fatal("CYK not deterministic")
			}
		}
	}
}

// --- Viterbi ---

func TestViterbiPathIsValidAndOptimalOnTinyHMM(t *testing.T) {
	v := NewViterbi(3, 4, 7, 5)
	m := v.Sequential()
	path := v.BestPath(m)
	if len(path) != len(v.Obs) {
		t.Fatalf("path length %d, want %d", len(path), len(v.Obs))
	}
	// Path log-probability must equal the matrix maximum at the last row.
	logp := v.LogInit[path[0]] + v.LogEmit[path[0]][v.Obs[0]]
	for t2 := 1; t2 < len(path); t2++ {
		logp += v.LogTrans[path[t2-1]][path[t2]] + v.LogEmit[path[t2]][v.Obs[t2]]
	}
	best := math.Inf(-1)
	for s := 0; s < v.States(); s++ {
		if m[len(v.Obs)-1][s] > best {
			best = m[len(v.Obs)-1][s]
		}
	}
	if math.Abs(logp-best) > 1e-9 {
		t.Fatalf("path logp %v != matrix best %v", logp, best)
	}
	// And it must match exhaustive search on this tiny instance.
	if bf := bruteViterbi(v); math.Abs(bf-best) > 1e-9 {
		t.Fatalf("matrix best %v != brute force %v", best, bf)
	}
}

func bruteViterbi(v *Viterbi) float64 {
	best := math.Inf(-1)
	states, steps := v.States(), len(v.Obs)
	var rec func(t, s int, logp float64)
	rec = func(t, s int, logp float64) {
		logp += v.LogEmit[s][v.Obs[t]]
		if t == steps-1 {
			if logp > best {
				best = logp
			}
			return
		}
		for ns := 0; ns < states; ns++ {
			rec(t+1, ns, logp+v.LogTrans[s][ns])
		}
	}
	for s := 0; s < states; s++ {
		rec(0, s, v.LogInit[s])
	}
	return best
}

func TestViterbiDistributionsNormalized(t *testing.T) {
	v := NewViterbi(4, 5, 3, 9)
	for _, dist := range append([][]float64{v.LogInit}, v.LogTrans...) {
		sum := 0.0
		for _, lp := range dist {
			sum += math.Exp(lp)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("distribution sums to %v", sum)
		}
	}
}

// --- Banded edit distance ---

func TestBandedEditExactWithinBand(t *testing.T) {
	a := RandomDNA(60, 21)
	b := MutateSeq(a, DNAAlphabet, 0.05, 22) // few substitutions: small distance
	full := NewEditDistance(a, b)
	want := full.Distance(full.Sequential())
	banded := NewBandedEdit(a, b, 10)
	if got := banded.Distance(banded.Sequential()); got != want {
		t.Fatalf("banded distance %d != full distance %d (within band)", got, want)
	}
}

func TestBandedEditNarrowBandOverestimates(t *testing.T) {
	a := []byte("AAAAAAAAAA")
	b := []byte("TTTTTTTTTTTTTTTTTTTT") // distance 20 > width
	banded := NewBandedEdit(a, b, 2)
	full := NewEditDistance(a, b)
	bd := banded.Distance(banded.Sequential())
	fd := full.Distance(full.Sequential())
	if bd < fd {
		t.Fatalf("banded %d below true distance %d", bd, fd)
	}
}

func TestBandedEditZeroWidthIsDiagonal(t *testing.T) {
	a := []byte("ACGT")
	b := []byte("AGGT")
	banded := NewBandedEdit(a, b, 0)
	// Width 0: only substitutions along the diagonal -> Hamming distance.
	if got := banded.Distance(banded.Sequential()); got != 1 {
		t.Fatalf("diagonal-only distance = %d, want 1", got)
	}
}
