package dag

import (
	"fmt"
	"io"
)

// Validate checks the model invariants of pat on a concrete geometry g,
// which a custom pattern should pass in its user's tests before it runs:
//
//   - the block DAG is acyclic with every existing block reachable from the
//     roots, so the parsing process ends with every vertex removed;
//   - every data dependency of a block is a topological ancestor of it, so
//     a block that becomes computable finds every block it reads complete;
//   - the row order of every block covers its computed cells, each once, in
//     segments that are neither empty nor reversed and stay in the block;
//   - every declared data region is non-empty and inside its dependency.
//
// It returns the first violation it finds, a precursor outside the grid
// among them. The graph and its topological order are built once for all
// the checks.
func Validate(pat Pattern, g Geometry) error {
	gr := &Graph{}
	if err := gr.Rebuild(pat, g); err != nil {
		return err
	}
	order, err := topoOrder(gr)
	if err != nil {
		return err
	}
	if err := checkTopology(gr, order); err != nil {
		return err
	}
	if err := checkRowOrder(gr); err != nil {
		return err
	}
	return checkDataRegion(gr)
}

// topoOrder returns a topological order of the existing vertices: the
// parsing process run to its end. Vertices it never reaches indicate a
// cycle.
func topoOrder(gr *Graph) ([]int32, error) {
	p := NewParser(gr)
	order := p.InitialReady()
	for k := 0; k < len(order); k++ {
		order = p.AppendComplete(order, order[k])
	}
	if len(order) != gr.N {
		return order, fmt.Errorf("dag: pattern %s: %d of %d vertices unreachable from the roots (a cycle)",
			gr.Pattern.Name(), gr.N-len(order), gr.N)
	}
	return order, nil
}

// checkTopology checks that every data dependency of every block is a
// topological ancestor of it. Row v of anc is the bitset of vertex v's
// ancestors, filled along order.
func checkTopology(gr *Graph, order []int32) error {
	words := (len(gr.Verts) + 63) / 64
	anc := make([]uint64, len(gr.Verts)*words)
	for _, id := range order {
		v, row := gr.Vertex(id), anc[int(id)*words:][:words]
		for _, d := range v.DataPre {
			if d != id && row[d/64]&(1<<(d%64)) == 0 {
				return fmt.Errorf("dag: pattern %s: data dependency %v of block %v is not a topological ancestor",
					gr.Pattern.Name(), gr.Geom.PosOf(d), v.Pos)
			}
		}
		for _, s := range v.Post {
			succ := anc[int(s)*words:][:words]
			for w, bits := range row {
				succ[w] |= bits
			}
			succ[id/64] |= 1 << (id % 64)
		}
	}
	return nil
}

// checkRowOrder checks the row order of every existing block: each segment
// is non-empty, inside the block, and covers computed cells it is the first
// to visit, and the segments together cover every computed cell of the
// block. A segment that breaks this would have the thread level write
// outside the block's storage, or compute a cell twice or never.
func checkRowOrder(gr *Graph) error {
	pat := gr.Pattern
	for _, id := range gr.Existing() {
		p, r := gr.Verts[id].Pos, gr.Geom.Rect(gr.Verts[id].Pos)
		seen := make([]bool, r.Cells())
		var bad string
		pat.RowOrder(r, func(i, j0, j1 int) {
			switch seg := (Rect{Row0: i, Col0: j0, Rows: 1, Cols: j1 - j0}); {
			case bad != "":
			case seg.Empty():
				bad = fmt.Sprintf("segment (%d, %d..%d) is empty or reversed", i, j0, j1)
			case !r.Covers(seg):
				bad = fmt.Sprintf("segment (%d, %d..%d) leaves the block", i, j0, j1)
			}
			for j := j0; j < j1 && bad == ""; j++ {
				k := (i-r.Row0)*r.Cols + j - r.Col0
				if !pat.CellExists(i, j) {
					bad = fmt.Sprintf("segment (%d, %d..%d) covers the hole (%d,%d)", i, j0, j1, i, j)
				} else if seen[k] {
					bad = fmt.Sprintf("segment (%d, %d..%d) repeats the cell (%d,%d)", i, j0, j1, i, j)
				}
				seen[k] = true
			}
		})
		for k := 0; k < len(seen) && bad == ""; k++ {
			if i, j := r.Row0+k/r.Cols, r.Col0+k%r.Cols; !seen[k] && pat.CellExists(i, j) {
				bad = fmt.Sprintf("skips the cell (%d,%d)", i, j)
			}
		}
		if bad != "" {
			return fmt.Errorf("dag: pattern %s block %v %v: row order %s", pat.Name(), p, r, bad)
		}
	}
	return nil
}

// checkDataRegion checks what the pattern declares of the
// data-communication level below whole blocks: for every block and every
// data dependency q of it, DataRegion is non-empty and inside q's own
// region. A pattern that declares none passes: its regions are the blocks.
// That the recurrence reads nothing outside a region is not checked here;
// matrix.View panics on such a read.
func checkDataRegion(gr *Graph) error {
	g := gr.Geom
	for _, id := range gr.Existing() {
		v := gr.Vertex(id)
		for _, d := range v.DataPre {
			q := g.PosOf(d)
			r, in := DataRegion(gr.Pattern, g, v.Pos, q), g.Rect(q)
			if !in.Covers(r) {
				return fmt.Errorf("dag: pattern %s: data region %v of block %v is empty or outside its dependency %v %v",
					gr.Pattern.Name(), r, v.Pos, q, in)
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
