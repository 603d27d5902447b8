// Command easyhps-dag inspects a DAG Pattern Model the way the paper's
// figures do: it draws the block grid, reports per-level parallelism (the
// width profile that bounds speedup), validates the model invariants, and
// can dump the precursor/data-dependency lists of a single block.
//
// Usage:
//
//	easyhps-dag -pattern triangular -rows 12 -cols 12 -block 3
//	easyhps-dag -pattern banded -width 4 -rows 32 -cols 32 -block 4
//	easyhps-dag -pattern rowcolumn -rows 20 -cols 20 -block 5 -at 2,3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dag"
)

func main() {
	var (
		pattern = flag.String("pattern", "wavefront", "pattern name: "+strings.Join(dag.LibraryNames(), ", "))
		rows    = flag.Int("rows", 16, "matrix rows")
		cols    = flag.Int("cols", 16, "matrix columns")
		bRows   = flag.Int("block", 4, "square block size (overridden by -brows/-bcols)")
		brFlag  = flag.Int("brows", 0, "block rows")
		bcFlag  = flag.Int("bcols", 0, "block cols")
		width   = flag.Int("width", 8, "band half-width (banded pattern only)")
		at      = flag.String("at", "", "dump dependencies of block \"row,col\"")
		dot     = flag.Bool("dot", false, "emit the block DAG in Graphviz DOT format and exit")
	)
	flag.Parse()

	var pat dag.Pattern
	if *pattern == dag.NameBanded {
		pat = dag.Banded{Width: *width}
	} else {
		p, ok := dag.Lookup(*pattern)
		if !ok {
			fmt.Fprintf(os.Stderr, "easyhps-dag: unknown pattern %q (have: %s)\n", *pattern, strings.Join(dag.LibraryNames(), ", "))
			os.Exit(1)
		}
		pat = p
	}

	block := dag.Size{Rows: *bRows, Cols: *bRows}
	if *brFlag > 0 {
		block.Rows = *brFlag
	}
	if *bcFlag > 0 {
		block.Cols = *bcFlag
	}
	g := dag.MatrixGeometry(dag.Size{Rows: *rows, Cols: *cols}, block)
	if *dot {
		if err := dag.WriteDOT(os.Stdout, pat, g); err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-dag:", err)
			os.Exit(1)
		}
		return
	}
	gr := dag.Build(pat, g)

	fmt.Printf("pattern %s (%s): matrix %dx%d, blocks %v, grid %v, %d vertices\n",
		pat.Name(), pat.Class(), *rows, *cols, block, g.Grid, gr.N)

	if err := dag.ValidateAcyclic(pat, g); err != nil {
		fmt.Println("ACYCLICITY: ", err)
	} else if err := dag.ValidateTopology(pat, g); err != nil {
		fmt.Println("TOPOLOGY:   ", err)
	} else if err := dag.ValidateCellOrder(pat, g); err != nil {
		fmt.Println("CELL ORDER: ", err)
	} else if err := dag.ValidateDataRegion(pat, g); err != nil {
		fmt.Println("DATA REGION:", err)
	} else {
		fmt.Println("model invariants: OK")
	}

	drawGrid(gr, g)
	widthProfile(gr, g)

	if *at != "" {
		var p dag.Pos
		if _, err := fmt.Sscanf(*at, "%d,%d", &p.Row, &p.Col); err != nil {
			fmt.Fprintln(os.Stderr, "easyhps-dag: -at wants \"row,col\"")
			os.Exit(1)
		}
		dumpBlock(pat, g, p)
	}
}

// drawGrid prints the block grid: '#' existing blocks, '.' holes, 'R'
// roots (immediately computable).
func drawGrid(gr *dag.Graph, g dag.Geometry) {
	roots := make(map[int32]bool)
	for _, id := range gr.Roots() {
		roots[id] = true
	}
	fmt.Println("\nblock grid ('R' root, '#' vertex, '.' hole):")
	for r := 0; r < g.Grid.Rows; r++ {
		var sb strings.Builder
		sb.WriteString("  ")
		for c := 0; c < g.Grid.Cols; c++ {
			id := g.ID(dag.Pos{Row: r, Col: c})
			switch {
			case !gr.Vertex(id).Exists:
				sb.WriteByte('.')
			case roots[id]:
				sb.WriteByte('R')
			default:
				sb.WriteByte('#')
			}
		}
		fmt.Println(sb.String())
	}
}

// widthProfile prints, for each depth level, how many vertices sit there —
// the available parallelism over time.
func widthProfile(gr *dag.Graph, g dag.Geometry) {
	level := make(map[int32]int)
	remaining := make(map[int32]int32)
	var queue []int32
	for _, id := range gr.Existing() {
		remaining[id] = gr.Vertex(id).PreCnt
		if gr.Vertex(id).PreCnt == 0 {
			queue = append(queue, id)
		}
	}
	maxLevel := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if level[id] > maxLevel {
			maxLevel = level[id]
		}
		for _, s := range gr.Vertex(id).Post {
			if l := level[id] + 1; l > level[s] {
				level[s] = l
			}
			remaining[s]--
			if remaining[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	width := make([]int, maxLevel+1)
	for _, id := range gr.Existing() {
		width[level[id]]++
	}
	peak, sum := 0, 0
	for _, w := range width {
		if w > peak {
			peak = w
		}
		sum += w
	}
	fmt.Printf("\ndepth levels: %d, peak width: %d, mean width: %.1f\n", len(width), peak, float64(sum)/float64(len(width)))
	fmt.Print("width profile: ")
	for l, w := range width {
		if l > 0 {
			fmt.Print(" ")
		}
		fmt.Print(w)
	}
	fmt.Println()
}

// dumpBlock prints one block's rect, precursors and data region.
func dumpBlock(pat dag.Pattern, g dag.Geometry, p dag.Pos) {
	if !g.InGrid(p) || !pat.BlockExists(g, p) {
		fmt.Printf("\nblock %v does not exist\n", p)
		return
	}
	fmt.Printf("\nblock %v rect %v\n", p, g.Rect(p))
	fmt.Printf("  precursors: %v\n", pat.Precursors(g, p, nil))
	fmt.Print("  data region:")
	for _, q := range pat.DataDeps(g, p, nil) {
		fmt.Printf(" %v%v", q, dag.DataRegion(pat, g, p, q))
	}
	fmt.Println()
}
