// Package cli holds the helpers shared by the command-line tools. The
// tools describe a job as the job service does, by a server.JobSpec, and
// build no input of their own: a problem is the kernel table entry for its
// spec (server.Registry.Build), so easyhps-launch, its easyhps-worker
// processes (server.RegistryBuilder) and easyhps-run answer what
// easyhps-serve and the simulator answer for the same spec. What this
// package adds is the report a kernel's completed matrix prints
// (alignment, structure, distance, ...).
package cli

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/server"
)

var registry = server.NewRegistry()

// Apps lists the applications available to the CLI tools: every kernel of
// the service's registry (matrix-chain uses int64 cells and is exposed only
// by easyhps-run).
var Apps = func() []string {
	var names []string
	for _, e := range registry.Names() {
		names = append(names, e.Name)
	}
	return names
}()

// BuildSpec constructs spec's DP problem through the registry, with no
// size limit, and picks the report by the kernel's concrete type: the
// returned function pretty-prints the application-level result from the
// completed matrix.
func BuildSpec(spec server.JobSpec) (core.Problem[int32], func(w io.Writer, m [][]int32), error) {
	p, _, err := registry.Build(spec, math.MaxInt64)
	if err != nil {
		return core.Problem[int32]{}, nil, err
	}
	return p, report(p.Kernel), nil
}

// report is the printer of a registry kernel's completed matrix.
func report(kernel core.Kernel[int32]) func(w io.Writer, m [][]int32) {
	switch k := kernel.(type) {
	case *dp.SWGG:
		return func(w io.Writer, m [][]int32) {
			al := k.Traceback(m)
			fmt.Fprintf(w, "best local alignment score: %d (at A[%d:], B[%d:])\n", al.Score, al.StartA, al.StartB)
			printAlignment(w, al)
		}
	case *dp.NeedlemanWunsch:
		return func(w io.Writer, m [][]int32) {
			al := k.Traceback(m)
			fmt.Fprintf(w, "global alignment score: %d\n", al.Score)
			printAlignment(w, al)
		}
	case *dp.Nussinov:
		return func(w io.Writer, m [][]int32) {
			fmt.Fprintf(w, "max base pairs: %d\n", m[0][len(k.S)-1])
			fmt.Fprintf(w, "seq: %s\n", k.S)
			fmt.Fprintf(w, "str: %s\n", k.Structure(m))
		}
	case *dp.EditDistance:
		return func(w io.Writer, m [][]int32) {
			fmt.Fprintf(w, "edit distance: %d\n", k.Distance(m))
		}
	case *dp.LCS:
		return func(w io.Writer, m [][]int32) {
			fmt.Fprintf(w, "LCS length: %d\n", m[len(m)-1][len(m[0])-1])
		}
	case *dp.Knapsack:
		return func(w io.Writer, m [][]int32) {
			fmt.Fprintf(w, "knapsack best value: %d (items=%d capacity=%d)\n", k.Best(m), len(k.Weights), k.Capacity)
		}
	}
	panic(fmt.Sprintf("cli: no report for kernel %T", kernel))
}

// printAlignment pretty-prints a gapped alignment in 60-column chunks with
// a match line.
func printAlignment(w io.Writer, al dp.Alignment) {
	const width = 60
	for off := 0; off < len(al.RowA); off += width {
		end := off + width
		if end > len(al.RowA) {
			end = len(al.RowA)
		}
		mid := make([]byte, end-off)
		for k := range mid {
			switch {
			case al.RowA[off+k] == al.RowB[off+k]:
				mid[k] = '|'
			case al.RowA[off+k] == '-' || al.RowB[off+k] == '-':
				mid[k] = ' '
			default:
				mid[k] = '.'
			}
		}
		fmt.Fprintf(w, "A  %s\n   %s\nB  %s\n\n", al.RowA[off:end], mid, al.RowB[off:end])
	}
}
