package dp

import (
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
