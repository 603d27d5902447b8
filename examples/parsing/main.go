// Context-free grammar recognition with CYK — one of the paper's
// motivating applications. Parses balanced-parenthesis strings with a CNF
// grammar whose nonterminal sets live in uint64 bitmask cells, runs the
// triangular DAG on the in-process cluster, and cross-checks a direct
// stack-based recognizer.
//
// Run with: go run ./examples/parsing
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
)

func main() {
	g := dp.ParenGrammar()
	inputs := []string{
		"(()(()))((()))()(())",
		"((((((((()))))))))",
		"(()(()))((())()(())", // unbalanced: one '(' too many
		"()()()()()()()()))((",
	}
	cfg := core.Config{
		Slaves:          3,
		Threads:         2,
		ProcPartition:   dag.Square(5),
		ThreadPartition: dag.Square(2),
	}
	for _, in := range inputs {
		c := dp.NewCYK(g, []byte(in))
		res, err := core.RunContext(context.Background(), c.Problem(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		accepted := c.Accepts(res.Matrix())
		fmt.Printf("%-24s -> accepted=%-5v (%d sub-tasks, %v)\n",
			in, accepted, res.Stats.Tasks, res.Stats.Elapsed)
		if accepted != balanced(in) {
			log.Fatalf("CYK disagrees with the direct recognizer on %q", in)
		}
	}
	fmt.Println("CYK agrees with the direct recognizer on all inputs")
}

func balanced(s string) bool {
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
