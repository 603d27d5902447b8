package easyhps_test

import (
	"fmt"

	easyhps "repro"
)

// The smallest possible program: run edit distance on an in-process
// 2-slave cluster.
func Example() {
	a := []byte("kitten")
	b := []byte("sitting")
	e := easyhps.NewEditDistance(a, b)
	res, err := easyhps.Run(e.Problem(), easyhps.Config{
		Slaves:          2,
		Threads:         2,
		ProcPartition:   easyhps.Square(3),
		ThreadPartition: easyhps.Square(2),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(e.Distance(res.Matrix()))
	// Output: 3
}

// Folding an RNA hairpin with Nussinov.
func Example_nussinov() {
	nu := easyhps.NewNussinov([]byte("GGGGAAAACCCC"))
	nu.WobblePairs = false
	res, err := easyhps.Run(nu.Problem(), easyhps.Config{
		Slaves:          2,
		Threads:         2,
		ProcPartition:   easyhps.Square(4),
		ThreadPartition: easyhps.Square(2),
	})
	if err != nil {
		panic(err)
	}
	m := res.Matrix()
	fmt.Println(m[0][11], nu.Structure(m))
	// Output: 4 ((((....))))
}

// Validating a user-defined DAG pattern before running it.
func ExampleValidatePattern() {
	// A "pattern" whose data dependencies are not covered by its
	// topological order is rejected.
	bad := easyhps.CustomPattern{
		PatternName: "example-bad",
		DataDepsFunc: func(g easyhps.Geometry, p easyhps.Pos, buf []easyhps.Pos) []easyhps.Pos {
			if p.Row > 0 {
				buf = append(buf, easyhps.Pos{Row: p.Row - 1, Col: p.Col})
			}
			return buf
		},
	}
	err := easyhps.ValidatePattern(bad, easyhps.MatrixGeometry(easyhps.Square(4), easyhps.Square(2)))
	fmt.Println(err != nil)
	// Output: true
}

// Looking up a library pattern by name.
func ExampleLookupPattern() {
	p, ok := easyhps.LookupPattern("triangular")
	fmt.Println(ok, p.Name(), p.Class())
	// Output: true triangular 2D/1D
}
