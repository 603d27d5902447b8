// Package dp implements the dynamic-programming applications used in the
// paper's evaluation (Smith-Waterman with general gap penalties, Nussinov)
// plus further classic DP algorithms covering the other DAG pattern
// classes (edit distance, LCS, matrix-chain multiplication, 0/1 knapsack,
// and the synthetic 2D/2D recurrence of Algorithm 4.3). Every algorithm
// comes in two forms: an EasyHPS kernel and a plain sequential reference
// used for correctness checks and speedup baselines.
package dp

import "math/rand"

// Alphabets for workload generation.
const (
	DNAAlphabet = "ACGT"
	RNAAlphabet = "ACGU"
)

// RandomSeq generates a reproducible random sequence of length n over the
// alphabet.
func RandomSeq(alphabet string, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	for i := range s {
		s[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return s
}

// RandomDNA generates a reproducible random DNA sequence.
func RandomDNA(n int, seed int64) []byte { return RandomSeq(DNAAlphabet, n, seed) }

// RandomRNA generates a reproducible random RNA sequence.
func RandomRNA(n int, seed int64) []byte { return RandomSeq(RNAAlphabet, n, seed) }

// MutateSeq returns a copy of s where each position is substituted with a
// random alphabet letter with probability rate — a cheap way to build
// pairs of related sequences so that alignments have realistic structure.
func MutateSeq(s []byte, alphabet string, rate float64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := append([]byte(nil), s...)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return out
}
