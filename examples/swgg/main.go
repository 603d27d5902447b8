// Local alignment with Smith-Waterman General Gap — the paper's first
// evaluation workload. Aligns a DNA read against a mutated reference on
// the in-process cluster and prints the traceback.
//
// Run with: go run ./examples/swgg
package main

import (
	"fmt"
	"log"

	easyhps "repro"
)

func main() {
	ref := easyhps.RandomDNA(600, 42)
	read := easyhps.MutateSeq(ref[100:400], "ACGT", 0.08, 43)

	s := easyhps.NewSWGG(ref, read)
	// General gap penalty w(k) = GapOpen + GapExt*k: raise the opening
	// cost so scattered gaps consolidate.
	s.GapOpen, s.GapExt = 4, 1

	res, err := easyhps.Run(s.Problem(), easyhps.Config{
		Slaves:          4,
		Threads:         3,
		ProcPartition:   easyhps.Square(75),
		ThreadPartition: easyhps.Square(15),
	})
	if err != nil {
		log.Fatal(err)
	}

	m := res.Matrix()
	score, bi, bj := easyhps.BestLocal(m)
	fmt.Printf("best local score %d at ref[%d], read[%d]  (%v, %d sub-tasks)\n",
		score, bi, bj, res.Stats.Elapsed, res.Stats.Tasks)

	al := s.Traceback(m)
	fmt.Printf("alignment starts at ref[%d], read[%d]:\n", al.StartA, al.StartB)
	for off := 0; off < len(al.RowA); off += 72 {
		end := off + 72
		if end > len(al.RowA) {
			end = len(al.RowA)
		}
		fmt.Printf("  ref  %s\n  read %s\n\n", al.RowA[off:end], al.RowB[off:end])
	}
}
