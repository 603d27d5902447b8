package dag

import (
	"fmt"
	"slices"
	"sync"
)

// Parser performs the runtime DAG parsing of the paper (Fig. 8): it tracks
// the remaining prefix degree of every vertex, reports vertices that become
// computable, and "removes" finished vertices together with their outgoing
// edges by decrementing the prefix degrees of their successors. It is safe
// for concurrent use by the scheduling and worker threads.
type Parser struct {
	mu        sync.Mutex
	g         *Graph
	remaining []int32 // remaining prefix degree per vertex id
	done      []bool
	left      int // vertices not yet completed
	emitted   []bool
}

// NewParser creates a parser over the built graph.
func NewParser(g *Graph) *Parser {
	p := &Parser{}
	p.Reset(g)
	return p
}

// Reset makes p a fresh parser over g, reusing its arrays: a parser reset
// for each rebuilt graph allocates nothing once they are large enough.
func (p *Parser) Reset(g *Graph) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(g.Verts)
	p.g, p.left = g, g.N
	p.remaining = slices.Grow(p.remaining[:0], n)[:n]
	p.done = slices.Grow(p.done[:0], n)[:n]
	p.emitted = slices.Grow(p.emitted[:0], n)[:n]
	clear(p.done)
	clear(p.emitted)
	for id := range g.Verts {
		p.remaining[id] = g.Verts[id].PreCnt
	}
}

// InitialReady returns the initially computable vertices (the roots of the
// DAG) and marks them emitted. It must be called exactly once, before any
// Complete call.
func (p *Parser) InitialReady() []int32 { return p.AppendInitialReady(nil) }

// AppendInitialReady is InitialReady appending to dst.
func (p *Parser) AppendInitialReady(dst []int32) []int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range p.g.Verts {
		if v := &p.g.Verts[id]; v.Exists && v.PreCnt == 0 {
			p.emitted[id] = true
			dst = append(dst, int32(id))
		}
	}
	return dst
}

// Complete marks vertex id finished and returns the vertices that became
// computable as a result. Completing a vertex twice is an error (the
// register table of the scheduler filters duplicate results before they
// reach the parser).
func (p *Parser) Complete(id int32) []int32 { return p.AppendComplete(nil, id) }

// AppendComplete is Complete appending the newly computable vertices to dst.
func (p *Parser) AppendComplete(dst []int32, id int32) []int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.g.Vertex(id)
	if !v.Exists {
		panic(fmt.Sprintf("dag: Complete of nonexistent vertex %d", id))
	}
	if p.done[id] {
		panic(fmt.Sprintf("dag: Complete of already finished vertex %d %v", id, v.Pos))
	}
	if p.remaining[id] != 0 {
		panic(fmt.Sprintf("dag: Complete of non-computable vertex %d %v (%d precursors left)", id, v.Pos, p.remaining[id]))
	}
	p.done[id] = true
	p.left--
	for _, s := range v.Post {
		p.remaining[s]--
		if p.remaining[s] == 0 {
			if p.emitted[s] {
				panic(fmt.Sprintf("dag: vertex %d emitted twice", s))
			}
			p.emitted[s] = true
			dst = append(dst, s)
		}
	}
	return dst
}

// Computable reports whether vertex id was emitted and not completed since.
func (p *Parser) Computable(id int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.emitted[id] && !p.done[id]
}

// Remaining returns the number of vertices not yet completed.
func (p *Parser) Remaining() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.left
}

// Finished reports whether every vertex has been completed — the parsing
// process has removed all vertices and edges from the DAG.
func (p *Parser) Finished() bool { return p.Remaining() == 0 }
