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
	"io"
	"os"
	"strings"

	"repro/internal/dag"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over its arguments: it writes the report, or the DOT
// graph with -dot, to stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("easyhps-dag", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pattern = fs.String("pattern", "wavefront", "pattern name: "+strings.Join(dag.LibraryNames(), ", "))
		rows    = fs.Int("rows", 16, "matrix rows")
		cols    = fs.Int("cols", 16, "matrix columns")
		bRows   = fs.Int("block", 4, "square block size (overridden by -brows/-bcols)")
		brFlag  = fs.Int("brows", 0, "block rows")
		bcFlag  = fs.Int("bcols", 0, "block cols")
		width   = fs.Int("width", 8, "band half-width (banded pattern only)")
		at      = fs.String("at", "", "dump dependencies of block \"row,col\"")
		dot     = fs.Bool("dot", false, "emit the block DAG in Graphviz DOT format and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var pat dag.Pattern
	if *pattern == dag.NameBanded {
		pat = dag.Banded{Width: *width}
	} else {
		p, ok := dag.Lookup(*pattern)
		if !ok {
			fmt.Fprintf(stderr, "easyhps-dag: unknown pattern %q (have: %s)\n", *pattern, strings.Join(dag.LibraryNames(), ", "))
			return 1
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
		if err := dag.WriteDOT(stdout, pat, g); err != nil {
			fmt.Fprintln(stderr, "easyhps-dag:", err)
			return 1
		}
		return 0
	}
	var p dag.Pos
	if *at != "" {
		if _, err := fmt.Sscanf(*at, "%d,%d", &p.Row, &p.Col); err != nil {
			fmt.Fprintln(stderr, "easyhps-dag: -at wants \"row,col\"")
			return 1
		}
	}
	gr := dag.Build(pat, g)

	fmt.Fprintf(stdout, "pattern %s (%s): matrix %dx%d, blocks %v, grid %v, %d vertices\n",
		pat.Name(), pat.Class(), *rows, *cols, block, g.Grid, gr.N)
	if err := dag.Validate(pat, g); err != nil {
		fmt.Fprintln(stdout, "model invariants:", err)
	} else {
		fmt.Fprintln(stdout, "model invariants: OK")
	}

	drawGrid(stdout, gr, g)
	widthProfile(stdout, gr)
	if *at != "" {
		dumpBlock(stdout, pat, g, p)
	}
	return 0
}

// drawGrid prints the block grid: '#' existing blocks, '.' holes, 'R'
// roots (immediately computable).
func drawGrid(w io.Writer, gr *dag.Graph, g dag.Geometry) {
	roots := make(map[int32]bool)
	for _, id := range gr.Roots() {
		roots[id] = true
	}
	fmt.Fprintln(w, "\nblock grid ('R' root, '#' vertex, '.' hole):")
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
		fmt.Fprintln(w, sb.String())
	}
}

// widthProfile prints, for each depth level, how many vertices sit there —
// the available parallelism over time.
func widthProfile(w io.Writer, gr *dag.Graph) {
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
	for _, n := range width {
		peak = max(peak, n)
		sum += n
	}
	fmt.Fprintf(w, "\ndepth levels: %d, peak width: %d, mean width: %.1f\n", len(width), peak, float64(sum)/float64(len(width)))
	fmt.Fprint(w, "width profile: ")
	for l, n := range width {
		if l > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, n)
	}
	fmt.Fprintln(w)
}

// dumpBlock prints one block's rect, precursors and data region.
func dumpBlock(w io.Writer, pat dag.Pattern, g dag.Geometry, p dag.Pos) {
	if !g.InGrid(p) || !pat.BlockExists(g, p) {
		fmt.Fprintf(w, "\nblock %v does not exist\n", p)
		return
	}
	fmt.Fprintf(w, "\nblock %v rect %v\n", p, g.Rect(p))
	fmt.Fprintf(w, "  precursors: %v\n", pat.Precursors(g, p, nil))
	fmt.Fprint(w, "  data region:")
	for _, q := range pat.DataDeps(g, p, nil) {
		fmt.Fprintf(w, " %v%v", q, dag.DataRegion(pat, g, p, q))
	}
	fmt.Fprintln(w)
}
