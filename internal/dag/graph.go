package dag

import "fmt"

// Vertex is one node of a built block DAG. It mirrors the DAGElement
// structure of the paper's user API: a prefix degree (number of direct
// precursors), the postfix list (successor ids) and the data-dependency
// prefix list.
type Vertex struct {
	// Pos is the block-grid position of the vertex.
	Pos Pos
	// Exists is false for grid positions outside the computed region
	// (e.g. below the diagonal of a triangular pattern); such vertices
	// never appear in the schedule.
	Exists bool
	// PreCnt is the prefix degree: the number of direct topological
	// precursors. Vertices with PreCnt 0 are immediately computable.
	PreCnt int32
	// Post lists the ids of the direct successors (the postfix list).
	Post []int32
	// DataPre lists the ids of the data-dependency precursors — the
	// blocks whose contents must be available before this vertex's
	// sub-task can run.
	DataPre []int32
}

// Graph is the built DAG Data Driven Model for one geometry: a dense array
// of vertices over the block grid, with precursor counts and successor
// lists precomputed from the pattern.
type Graph struct {
	Pattern Pattern
	Geom    Geometry
	// Verts is indexed by Geometry.ID; positions that do not exist carry
	// Exists == false.
	Verts []Vertex
	// N is the number of existing vertices.
	N int

	preBuf, dataBuf []Pos // Rebuild's pattern query buffers
}

// Build constructs the block DAG of pattern pat over geometry g. It panics
// where Rebuild fails: a library pattern cannot, and a user pattern is
// checked first (Validate).
func Build(pat Pattern, g Geometry) *Graph {
	gr := &Graph{}
	if err := gr.Rebuild(pat, g); err != nil {
		panic(err)
	}
	return gr
}

// Rebuild makes gr the block DAG of pattern pat over geometry g in gr's own
// storage: the vertex array and every vertex's successor and data-precursor
// lists are reused, so a graph rebuilt for each block of the same shape
// allocates nothing. Every vertex is derived again from the pattern, so a
// position-dependent pattern (Triangular, a Custom) is rebuilt exactly. It
// fails on a precursor that is not an existing block of the grid.
func (gr *Graph) Rebuild(pat Pattern, g Geometry) error {
	n := g.Grid.Cells()
	if cap(gr.Verts) < n {
		gr.Verts = make([]Vertex, n)
	}
	gr.Pattern, gr.Geom, gr.Verts, gr.N = pat, g, gr.Verts[:n], 0
	for id := range gr.Verts {
		v := &gr.Verts[id]
		*v = Vertex{Pos: g.PosOf(int32(id)), Post: v.Post[:0], DataPre: v.DataPre[:0]}
	}
	for id := range gr.Verts {
		v := &gr.Verts[id]
		p := v.Pos
		if !pat.BlockExists(g, p) {
			continue
		}
		v.Exists = true
		gr.N++
		gr.preBuf = pat.Precursors(g, p, gr.preBuf[:0])
		for _, q := range gr.preBuf {
			if !g.InGrid(q) || !pat.BlockExists(g, q) {
				return fmt.Errorf("dag: pattern %s reported nonexistent precursor %v of %v", pat.Name(), q, p)
			}
			v.PreCnt++
			qv := &gr.Verts[g.ID(q)]
			qv.Post = append(qv.Post, int32(id))
		}
		gr.dataBuf = pat.DataDeps(g, p, gr.dataBuf[:0])
		for _, q := range gr.dataBuf {
			if g.InGrid(q) && pat.BlockExists(g, q) {
				v.DataPre = append(v.DataPre, g.ID(q))
			}
		}
	}
	return nil
}

// Vertex returns the vertex with the given id.
func (gr *Graph) Vertex(id int32) *Vertex { return &gr.Verts[id] }

// Roots returns the ids of all initially computable vertices (prefix
// degree zero), in row-major order.
func (gr *Graph) Roots() []int32 {
	var roots []int32
	for id := range gr.Verts {
		v := &gr.Verts[id]
		if v.Exists && v.PreCnt == 0 {
			roots = append(roots, int32(id))
		}
	}
	return roots
}

// Existing returns the ids of all existing vertices in row-major order.
func (gr *Graph) Existing() []int32 {
	ids := make([]int32, 0, gr.N)
	for id := range gr.Verts {
		if gr.Verts[id].Exists {
			ids = append(ids, int32(id))
		}
	}
	return ids
}
