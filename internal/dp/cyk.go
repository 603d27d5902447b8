package dp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// CNFRule is one binary production A -> B C of a grammar in Chomsky
// normal form.
type CNFRule struct {
	A, B, C uint8
}

// CNFGrammar is a context-free grammar in Chomsky normal form with at most
// 64 nonterminals, so a set of nonterminals fits one uint64 cell.
// CYK parsing with such a grammar is the paper's "context-free grammar
// recognition" motivating application.
type CNFGrammar struct {
	// Symbols is the number of nonterminals (<= 64); nonterminal 0 is
	// the start symbol.
	Symbols int
	// Terminals maps each input letter to the mask of nonterminals A
	// with a unit production A -> letter.
	Terminals map[byte]uint64
	// Rules are the binary productions.
	Rules []CNFRule
}

// ParenGrammar returns the classic balanced-parentheses grammar in CNF:
//
//	S  -> L S' | L R | S S
//	S' -> S R
//	L -> '('   R -> ')'
//
// with nonterminals S=0, S'=1, L=2, R=3.
func ParenGrammar() *CNFGrammar {
	return &CNFGrammar{
		Symbols: 4,
		Terminals: map[byte]uint64{
			'(': 1 << 2,
			')': 1 << 3,
		},
		Rules: []CNFRule{
			{A: 0, B: 2, C: 1}, // S  -> L S'
			{A: 0, B: 2, C: 3}, // S  -> L R
			{A: 0, B: 0, C: 0}, // S  -> S S
			{A: 1, B: 0, C: 3}, // S' -> S R
		},
	}
}

// RandomGrammar builds a reproducible random CNF grammar over the given
// alphabet, used to stress the parser beyond hand-written cases.
func RandomGrammar(symbols, rules int, alphabet string, seed int64) *CNFGrammar {
	if symbols > 64 {
		panic("dp: CNF grammar limited to 64 nonterminals")
	}
	rng := rand.New(rand.NewSource(seed))
	g := &CNFGrammar{Symbols: symbols, Terminals: make(map[byte]uint64)}
	for _, ch := range []byte(alphabet) {
		// Each letter derivable from a couple of random nonterminals.
		g.Terminals[ch] = 1<<uint(rng.Intn(symbols)) | 1<<uint(rng.Intn(symbols))
	}
	for k := 0; k < rules; k++ {
		g.Rules = append(g.Rules, CNFRule{
			A: uint8(rng.Intn(symbols)),
			B: uint8(rng.Intn(symbols)),
			C: uint8(rng.Intn(symbols)),
		})
	}
	return g
}

// CYK parses an input string with a CNF grammar: cell (i, j) holds the
// bitmask of nonterminals deriving input[i..j]:
//
//	N[i,i] = { A : A -> input[i] }
//	N[i,j] = { A : A -> B C, B in N[i,k], C in N[k+1,j], i <= k < j }
//
// The dependency shape (row segment + column segment) is exactly the
// triangular pattern of Nussinov.
type CYK struct {
	Grammar *CNFGrammar
	Input   []byte
}

// NewCYK builds the parser.
func NewCYK(g *CNFGrammar, input []byte) *CYK { return &CYK{Grammar: g, Input: input} }

// Size returns the DP matrix extent.
func (c *CYK) Size() dag.Size { return dag.Square(len(c.Input)) }

// Pattern implements core.Kernel.
func (c *CYK) Pattern() dag.Pattern { return dag.Triangular{} }

// Boundary implements core.Kernel: nothing derives an empty span.
func (c *CYK) Boundary(i, j int) uint64 { return 0 }

// Cell implements core.Kernel.
func (c *CYK) Cell(v *matrix.View[uint64], i, j int) uint64 {
	if i == j {
		return c.Grammar.Terminals[c.Input[i]]
	}
	var set uint64
	rules := c.Grammar.Rules
	splitRuns(v, i, j, i, j, 1, func(_ int, row, col []uint64, stride int) {
		s := set
		for t, x := 0, 0; t < len(row); t, x = t+1, x+stride {
			left, right := row[t], col[x]
			if left == 0 || right == 0 {
				continue
			}
			for _, r := range rules {
				if left&(1<<r.B) != 0 && right&(1<<r.C) != 0 {
					s |= 1 << r.A
				}
			}
		}
		set = s
	})
	return set
}

// Problem wraps the parser for the runtime.
func (c *CYK) Problem() core.Problem[uint64] {
	return core.Problem[uint64]{
		Name:   fmt.Sprintf("cyk-%d", len(c.Input)),
		Size:   c.Size(),
		Kernel: c,
		Codec:  matrix.BinaryCodec[uint64]{},
	}
}

// Sequential is the reference implementation.
func (c *CYK) Sequential() [][]uint64 {
	n := len(c.Input)
	m := make([][]uint64, n)
	backing := make([]uint64, n*n)
	for i := range m {
		m[i], backing = backing[:n], backing[n:]
	}
	for i := 0; i < n; i++ {
		m[i][i] = c.Grammar.Terminals[c.Input[i]]
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			var set uint64
			for k := i; k < j; k++ {
				left, right := m[i][k], m[k+1][j]
				if left == 0 || right == 0 {
					continue
				}
				for _, r := range c.Grammar.Rules {
					if left&(1<<r.B) != 0 && right&(1<<r.C) != 0 {
						set |= 1 << r.A
					}
				}
			}
			m[i][j] = set
		}
	}
	return m
}

// Accepts reports whether the whole input derives from the start symbol.
func (c *CYK) Accepts(m [][]uint64) bool {
	if len(c.Input) == 0 {
		return false
	}
	return m[0][len(c.Input)-1]&1 != 0
}
