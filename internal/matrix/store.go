package matrix

import (
	"fmt"
	"sync"

	"repro/internal/dag"
)

// BlockStore is what a result is read through: the benchmark's checks
// and the job service's finishers take one, and Store satisfies it.
type BlockStore[T any] interface {
	// Geometry returns the partitioning geometry.
	Geometry() dag.Geometry
	// Get returns the block at p, or nil when absent.
	Get(p dag.Pos) *Block[T]
	// Len returns the number of stored blocks.
	Len() int
	// Cell returns the value of global cell (i, j).
	Cell(i, j int) T
	// Assemble flattens the store into a dense matrix.
	Assemble() [][]T
}

// Store holds the completed blocks of a DP matrix, keyed by block-grid
// position of a fixed geometry. The master part uses it to collect
// sub-task results and to gather the data regions of new sub-tasks. It is
// safe for concurrent use.
type Store[T any] struct {
	geom dag.Geometry

	mu     sync.RWMutex
	blocks map[dag.Pos]*Block[T]
	taken  bool // Take handed the blocks over
}

// NewStore creates an empty store over geometry g.
func NewStore[T any](g dag.Geometry) *Store[T] {
	return &Store[T]{geom: g, blocks: make(map[dag.Pos]*Block[T])}
}

// Geometry returns the store's partitioning geometry.
func (s *Store[T]) Geometry() dag.Geometry { return s.geom }

// CheckRect returns an error unless r, the region of a block, is exactly
// the region of grid position p in geometry g. Put panics on a mismatch —
// right for a block this process computed; a block decoded from a worker
// result, a checkpoint log or a cache entry is outside input, and its
// reader must check it first and fail the run instead.
func CheckRect(g dag.Geometry, p dag.Pos, r dag.Rect) error {
	if want := g.Rect(p); r != want {
		return fmt.Errorf("matrix: block rect %v does not match geometry rect %v of %v", r, want, p)
	}
	return nil
}

// Put stores the completed block for grid position p. The block's region
// must match the geometry's region for p. After Take it drops the block: a
// commit that lands once the matrix was handed over must not stay behind.
func (s *Store[T]) Put(p dag.Pos, b *Block[T]) {
	if err := CheckRect(s.geom, p, b.Rect); err != nil {
		panic(err.Error())
	}
	s.mu.Lock()
	if !s.taken {
		s.blocks[p] = b
	}
	s.mu.Unlock()
}

// Get returns the block at grid position p, or nil when it has not been
// stored yet.
func (s *Store[T]) Get(p dag.Pos) *Block[T] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blocks[p]
}

// Gather returns the blocks at the given positions; it panics if any of
// them is missing, because the DAG model guarantees that every data
// dependency of a computable vertex is complete. After Take it returns nil:
// what it would gather went with the blocks.
func (s *Store[T]) Gather(ps []dag.Pos) []*Block[T] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.taken {
		return nil
	}
	out := make([]*Block[T], len(ps))
	for k, p := range ps {
		b := s.blocks[p]
		if b == nil {
			panic(fmt.Sprintf("matrix: gather of missing block %v (scheduling bug: data dependency not complete)", p))
		}
		out[k] = b
	}
	return out
}

// Drop removes the block at grid position p (memory reclamation); it is a
// no-op when the block is absent.
func (s *Store[T]) Drop(p dag.Pos) {
	s.mu.Lock()
	delete(s.blocks, p)
	s.mu.Unlock()
}

// Take moves every block to a new store of the same geometry, which it
// returns, and leaves s empty: the hand-over of a finished job's matrix, so
// that what still references s — a retained job, a sender that drew before
// the job ended, a commit still in flight — holds no block.
func (s *Store[T]) Take() *Store[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &Store[T]{geom: s.geom, blocks: s.blocks}
	s.blocks, s.taken = make(map[dag.Pos]*Block[T]), true
	return out
}

// Len returns the number of stored blocks.
func (s *Store[T]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Cell returns the value of global cell (i, j); the containing block must
// have been stored.
func (s *Store[T]) Cell(i, j int) T {
	p := s.geom.BlockOf(i, j)
	b := s.Get(p)
	if b == nil {
		panic(fmt.Sprintf("matrix: cell (%d,%d) read from missing block %v", i, j, p))
	}
	return b.At(i, j)
}

// Assemble flattens the stored blocks into a dense [rows][cols] matrix
// over the store's region. Cells of missing blocks (e.g. below the
// diagonal of a triangular pattern) are left at the zero value. Row and
// column indices of the result are region-relative.
func (s *Store[T]) Assemble() [][]T {
	reg := s.geom.Region
	out := make([][]T, reg.Rows)
	backing := make([]T, reg.Rows*reg.Cols)
	for i := range out {
		out[i], backing = backing[:reg.Cols], backing[reg.Cols:]
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, b := range s.blocks {
		r := b.Rect
		for i := 0; i < r.Rows; i++ {
			copy(out[r.Row0-reg.Row0+i][r.Col0-reg.Col0:], b.Cells[i*r.Cols:(i+1)*r.Cols])
		}
	}
	return out
}
