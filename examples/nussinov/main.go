// RNA secondary-structure prediction with the Nussinov algorithm — the
// paper's second evaluation workload and the canonical triangular
// (2D/1D) DAG pattern. Folds a random RNA on the in-process cluster and
// prints the dot-bracket structure.
//
// Run with: go run ./examples/nussinov
package main

import (
	"fmt"
	"log"

	easyhps "repro"
)

func main() {
	rna := easyhps.RandomRNA(300, 2024)
	nu := easyhps.NewNussinov(rna)
	nu.MinLoop = 3 // no sharp hairpins

	res, err := easyhps.Run(nu.Problem(), easyhps.Config{
		Slaves:          3,
		Threads:         4,
		ProcPartition:   easyhps.Square(50),
		ThreadPartition: easyhps.Square(10),
	})
	if err != nil {
		log.Fatal(err)
	}

	m := res.Matrix()
	structure := nu.Structure(m)
	pairs := easyhps.PairCount(structure)
	fmt.Printf("folded %d bases into %d pairs (matrix says %d) in %v\n",
		len(rna), pairs, m[0][len(rna)-1], res.Stats.Elapsed)
	for off := 0; off < len(rna); off += 72 {
		end := off + 72
		if end > len(rna) {
			end = len(rna)
		}
		fmt.Printf("  %s\n  %s\n\n", rna[off:end], structure[off:end])
	}
	if pairs != int(m[0][len(rna)-1]) {
		log.Fatal("structure inconsistent with matrix")
	}
}
