package matrix

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/dag"
)

// BlockStore is the master-side storage abstraction: the in-memory Store
// and the out-of-core SpillStore both satisfy it.
type BlockStore[T any] interface {
	// Geometry returns the partitioning geometry.
	Geometry() dag.Geometry
	// Put stores the completed block for grid position p.
	Put(p dag.Pos, b *Block[T])
	// Get returns the block at p, or nil when absent.
	Get(p dag.Pos) *Block[T]
	// Gather returns the blocks at the given positions, panicking on a
	// missing one (a scheduling bug by the DAG model's invariants).
	Gather(ps []dag.Pos) []*Block[T]
	// Drop removes the block at p (memory reclamation).
	Drop(p dag.Pos)
	// Len returns the number of stored blocks.
	Len() int
	// Cell returns the value of global cell (i, j).
	Cell(i, j int) T
	// Assemble flattens the store into a dense matrix.
	Assemble() [][]T
}

var (
	_ BlockStore[int32] = (*Store[int32])(nil)
	_ BlockStore[int32] = (*SpillStore[int32])(nil)
)

// SpillStore is the out-of-core variant of Store: at most Budget blocks
// stay in memory; older blocks are encoded with the problem's codec and
// spilled to files under Dir, to be reloaded transparently on access.
// This addresses the space-complexity limitation the paper lists as
// future work for large DP matrices, beyond what reclamation alone can do
// (reclamation needs consumers to finish; spilling works even while every
// block is still live).
//
// Eviction is FIFO over completed blocks — DP block access is dominated
// by the wavefront neighbourhood, so recently produced blocks are the hot
// set and FIFO behaves like LRU at a fraction of the bookkeeping.
type SpillStore[T any] struct {
	geom   dag.Geometry
	codec  Codec[T]
	dir    string
	budget int

	mu     sync.Mutex
	mem    map[dag.Pos]*Block[T]
	order  []dag.Pos // insertion order of in-memory blocks
	onDisk map[dag.Pos]string

	spills, loads int64
}

// NewSpillStore creates a spill store over geometry g that keeps at most
// budget blocks in memory (minimum 1) and spills the rest under dir using
// codec c. The directory is created if needed.
func NewSpillStore[T any](g dag.Geometry, c Codec[T], dir string, budget int) (*SpillStore[T], error) {
	if budget < 1 {
		budget = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("matrix: spill dir: %w", err)
	}
	return &SpillStore[T]{
		geom:   g,
		codec:  c,
		dir:    dir,
		budget: budget,
		mem:    make(map[dag.Pos]*Block[T]),
		onDisk: make(map[dag.Pos]string),
	}, nil
}

// Geometry returns the store's partitioning geometry.
func (s *SpillStore[T]) Geometry() dag.Geometry { return s.geom }

func (s *SpillStore[T]) path(p dag.Pos) string {
	return filepath.Join(s.dir, fmt.Sprintf("block-%d-%d.bin", p.Row, p.Col))
}

// Put stores a completed block, spilling the oldest in-memory blocks when
// the budget is exceeded. Spill failures panic: the runtime cannot
// continue without its storage, and the condition (disk full) is
// environmental.
func (s *SpillStore[T]) Put(p dag.Pos, b *Block[T]) {
	if err := CheckRect(s.geom, p, b.Rect); err != nil {
		panic(err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mem[p]; !ok {
		s.order = append(s.order, p)
	}
	s.mem[p] = b
	for len(s.mem) > s.budget {
		s.evictOldestLocked()
	}
}

func (s *SpillStore[T]) evictOldestLocked() {
	for len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		b, ok := s.mem[victim]
		if !ok {
			continue // already dropped or evicted
		}
		data, err := EncodeBlocks(s.codec, []*Block[T]{b})
		if err != nil {
			panic(fmt.Sprintf("matrix: encoding spill block %v: %v", victim, err))
		}
		if err := os.WriteFile(s.path(victim), data, 0o644); err != nil {
			panic(fmt.Sprintf("matrix: spilling block %v: %v", victim, err))
		}
		delete(s.mem, victim)
		s.onDisk[victim] = s.path(victim)
		s.spills++
		return
	}
}

// load brings a spilled block back (without re-inserting it into the
// in-memory window; Gather bursts should not evict the hot set).
func (s *SpillStore[T]) loadLocked(p dag.Pos) *Block[T] {
	path, ok := s.onDisk[p]
	if !ok {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		panic(fmt.Sprintf("matrix: reloading spilled block %v: %v", p, err))
	}
	b, err := DecodeBlock(s.codec, data, s.geom, p)
	if err != nil {
		panic(fmt.Sprintf("matrix: decoding spilled block %v: %v", p, err))
	}
	s.loads++
	return b
}

// Get returns the block at p, reloading it from disk when spilled.
func (s *SpillStore[T]) Get(p dag.Pos) *Block[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.mem[p]; ok {
		return b
	}
	return s.loadLocked(p)
}

// Gather returns the blocks at the given positions; missing blocks panic.
func (s *SpillStore[T]) Gather(ps []dag.Pos) []*Block[T] {
	out := make([]*Block[T], len(ps))
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, p := range ps {
		b, ok := s.mem[p]
		if !ok {
			b = s.loadLocked(p)
		}
		if b == nil {
			panic(fmt.Sprintf("matrix: gather of missing block %v (scheduling bug: data dependency not complete)", p))
		}
		out[k] = b
	}
	return out
}

// Drop removes the block at p from memory and disk.
func (s *SpillStore[T]) Drop(p dag.Pos) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.mem, p)
	if path, ok := s.onDisk[p]; ok {
		os.Remove(path)
		delete(s.onDisk, p)
	}
}

// Len returns the number of stored blocks (memory plus disk).
func (s *SpillStore[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem) + len(s.onDisk)
}

// InMemory returns how many blocks currently reside in memory.
func (s *SpillStore[T]) InMemory() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// IO returns the cumulative spill and reload counts.
func (s *SpillStore[T]) IO() (spills, loads int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spills, s.loads
}

// Cell returns the value of global cell (i, j).
func (s *SpillStore[T]) Cell(i, j int) T {
	b := s.Get(s.geom.BlockOf(i, j))
	if b == nil {
		panic(fmt.Sprintf("matrix: cell (%d,%d) read from missing block", i, j))
	}
	return b.At(i, j)
}

// Assemble flattens all blocks (reloading spilled ones) into a dense
// matrix.
func (s *SpillStore[T]) Assemble() [][]T {
	s.mu.Lock()
	positions := make([]dag.Pos, 0, len(s.mem)+len(s.onDisk))
	for p := range s.mem {
		positions = append(positions, p)
	}
	for p := range s.onDisk {
		positions = append(positions, p)
	}
	s.mu.Unlock()

	return assemble(s.geom.Region, func(place func(*Block[T])) {
		for _, p := range positions {
			if b := s.Get(p); b != nil {
				place(b)
			}
		}
	})
}

// Close removes all spill files.
func (s *SpillStore[T]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for p, path := range s.onDisk {
		if err := os.Remove(path); err != nil && first == nil {
			first = err
		}
		delete(s.onDisk, p)
	}
	return first
}
