package dag

import (
	"fmt"
	"io"
	"slices"
)

// ValidateTopology checks the model invariant on a concrete geometry:
// every data dependency of every block must be reachable from the block
// through topological precursor edges, so that when a block becomes
// computable all blocks it reads from are complete. Custom patterns should
// be validated with this before use.
func ValidateTopology(pat Pattern, g Geometry) error {
	gr := Build(pat, g)
	// reach[v] = set of ancestor ids of v, built in topological order.
	order, err := topoOrder(gr)
	if err != nil {
		return err
	}
	anc := make([]map[int32]bool, len(gr.Verts))
	var preBuf []Pos
	for _, id := range order {
		v := gr.Vertex(id)
		set := make(map[int32]bool)
		preBuf = pat.Precursors(g, v.Pos, preBuf[:0])
		for _, q := range preBuf {
			qid := g.ID(q)
			set[qid] = true
			for a := range anc[qid] {
				set[a] = true
			}
		}
		anc[id] = set
		for _, d := range v.DataPre {
			if d != id && !set[d] {
				return fmt.Errorf("dag: pattern %s: data dependency %v of block %v is not a topological ancestor",
					pat.Name(), g.PosOf(d), v.Pos)
			}
		}
	}
	return nil
}

// ValidateAcyclic checks that the block DAG of pat over g has no cycles
// and that every existing vertex is reachable from the roots (i.e. the
// parsing process terminates with all vertices removed).
func ValidateAcyclic(pat Pattern, g Geometry) error {
	gr := Build(pat, g)
	order, err := topoOrder(gr)
	if err != nil {
		return err
	}
	if len(order) != gr.N {
		return fmt.Errorf("dag: pattern %s: %d of %d vertices unreachable from roots (cycle or dangling precursor)",
			pat.Name(), gr.N-len(order), gr.N)
	}
	return nil
}

// topoOrder returns a topological order of the existing vertices via
// Kahn's algorithm. Vertices left unprocessed indicate a cycle.
func topoOrder(gr *Graph) ([]int32, error) {
	remaining := make([]int32, len(gr.Verts))
	for id := range gr.Verts {
		remaining[id] = gr.Verts[id].PreCnt
	}
	queue := gr.Roots()
	order := make([]int32, 0, gr.N)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range gr.Vertex(id).Post {
			remaining[s]--
			if remaining[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != gr.N {
		return order, fmt.Errorf("dag: graph of %s has a cycle", gr.Pattern.Name())
	}
	return order, nil
}

// ValidateCellOrder checks that CellOrder visits exactly the existing
// cells of every block of g exactly once, and that RowOrder — the pattern's
// own, when it declares one — expands to the same cells in the same order:
// the thread level computes by RowOrder what the pattern promised by
// CellOrder.
func ValidateCellOrder(pat Pattern, g Geometry) error {
	for r := 0; r < g.Grid.Rows; r++ {
		for c := 0; c < g.Grid.Cols; c++ {
			p := Pos{Row: r, Col: c}
			if !pat.BlockExists(g, p) {
				continue
			}
			rect := g.Rect(p)
			var cells, rows [][2]int
			seen := make(map[[2]int]int)
			pat.CellOrder(rect, func(i, j int) {
				cells = append(cells, [2]int{i, j})
				seen[[2]int{i, j}]++
			})
			for i := rect.Row0; i < rect.Row0+rect.Rows; i++ {
				for j := rect.Col0; j < rect.Col0+rect.Cols; j++ {
					want := 0
					if pat.CellExists(i, j) {
						want = 1
					}
					if seen[[2]int{i, j}] != want {
						return fmt.Errorf("dag: pattern %s block %v: cell (%d,%d) visited %d times, want %d",
							pat.Name(), p, i, j, seen[[2]int{i, j}], want)
					}
				}
			}
			RowOrder(pat, rect, func(i, j0, j1 int) {
				for j := j0; j < j1; j++ {
					rows = append(rows, [2]int{i, j})
				}
			})
			if !slices.Equal(rows, cells) {
				k := 0
				for k < len(rows) && k < len(cells) && rows[k] == cells[k] {
					k++
				}
				return fmt.Errorf("dag: pattern %s block %v: RowOrder expands to %d cells, CellOrder visits %d, and they part at visit %d",
					pat.Name(), p, len(rows), len(cells), k)
			}
		}
	}
	return nil
}

// ValidateDataRegion checks what pat declares of the data-communication
// level below whole blocks: for every block of g and every data dependency q
// of it, DataRegion is non-empty and inside q's own region. A pattern that
// declares none passes: its regions are the blocks. That the recurrence
// reads nothing outside a region is not checked here; matrix.View panics on
// such a read.
func ValidateDataRegion(pat Pattern, g Geometry) error {
	gr := Build(pat, g)
	for _, id := range gr.Existing() {
		v := gr.Vertex(id)
		for _, d := range v.DataPre {
			q := g.PosOf(d)
			r, in := DataRegion(pat, g, v.Pos, q), g.Rect(q)
			if !in.Covers(r) {
				return fmt.Errorf("dag: pattern %s: data region %v of block %v is empty or outside its dependency %v %v",
					pat.Name(), r, v.Pos, q, in)
			}
		}
	}
	return nil
}

// WriteDOT renders the block DAG of pat over g in Graphviz DOT format:
// one node per existing block labelled with its grid position, solid
// edges for topological precursors and dashed edges for the additional
// data dependencies. Useful for documenting custom patterns
// (easyhps-dag -dot).
func WriteDOT(w io.Writer, pat Pattern, g Geometry) error {
	gr := Build(pat, g)
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", pat.Name()); err != nil {
		return err
	}
	name := func(p Pos) string { return fmt.Sprintf("b%d_%d", p.Row, p.Col) }
	var buf []Pos
	for _, id := range gr.Existing() {
		v := gr.Vertex(id)
		if _, err := fmt.Fprintf(w, "  %s [label=\"%d,%d\"];\n", name(v.Pos), v.Pos.Row, v.Pos.Col); err != nil {
			return err
		}
	}
	for _, id := range gr.Existing() {
		v := gr.Vertex(id)
		pre := make(map[Pos]bool)
		buf = pat.Precursors(g, v.Pos, buf[:0])
		for _, q := range buf {
			pre[q] = true
			if _, err := fmt.Fprintf(w, "  %s -> %s;\n", name(q), name(v.Pos)); err != nil {
				return err
			}
		}
		for _, d := range v.DataPre {
			q := g.PosOf(d)
			if pre[q] {
				continue
			}
			if _, err := fmt.Fprintf(w, "  %s -> %s [style=dashed, color=gray];\n", name(q), name(v.Pos)); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
