package cas

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Store.
type Options struct {
	// Dir, when non-empty, persists entries as files under this directory
	// (one file per key, "<hex>.blk": the payload's content key, then the
	// payload) and reloads them on open, refusing and removing a file whose
	// payload does not hash to its header. Empty keeps the store purely in
	// memory.
	Dir string
	// MaxBytes budgets the entries' payload bytes, blocks and whole-job
	// results alike: the least recently used entries are evicted once the
	// budget is exceeded, and a single payload larger than the budget is
	// not stored at all, so the store never holds more than MaxBytes. Zero
	// or negative means unlimited.
	MaxBytes int64
}

// layerCount is one counter fanned out by consumer layer.
type layerCount struct {
	server atomic.Int64
	master atomic.Int64
	wire   atomic.Int64
}

func (c *layerCount) add(l Layer) {
	switch l {
	case LayerServer:
		c.server.Add(1)
	case LayerMaster:
		c.master.Add(1)
	default:
		c.wire.Add(1)
	}
}

func (c *layerCount) snapshot() map[Layer]int64 {
	return map[Layer]int64{
		LayerServer: c.server.Load(),
		LayerMaster: c.master.Load(),
		LayerWire:   c.wire.Load(),
	}
}

// entry is one resident payload. content is PayloadKey(payload), derived
// once, when the bytes entered the process — at the put, or at the load of
// a file whose header it is — and handed back by every GetBlock.
type entry struct {
	key     Key
	content Key
	payload []byte
}

// Store is the content-addressed result store: one byte-budgeted LRU of
// entries, a DP block under its BlockKey or a whole-job result under its
// JobKey, kept and evicted by the same rule. All methods are safe for
// concurrent use; payloads are treated as immutable by both sides (callers
// must not mutate a slice after Put or the slice returned by Get).
type Store struct {
	opts Options

	mu      sync.Mutex
	entries map[Key]*list.Element // of *entry
	lru     *list.List            // front = most recently used
	bytes   int64

	hits      layerCount
	misses    layerCount
	evictions atomic.Int64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits and Misses count lookups per consumer layer. A wire "hit" is a
	// block that did not have to be reshipped; a wire "miss" is one that
	// was.
	Hits   map[Layer]int64
	Misses map[Layer]int64
	// Evictions counts entries dropped by the LRU byte budget.
	Evictions int64
	// Bytes is the resident payload size; Entries counts resident entries.
	Bytes   int64
	Entries int
}

// NewStore opens a store; when opts.Dir is set, existing entries are
// reloaded, oldest first, so the byte budget keeps the newest.
func NewStore(opts Options) (*Store, error) {
	s := &Store{
		opts:    opts,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
	}
	if s.opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: creating cache dir: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load reads the persisted entries back in. Only called from NewStore,
// before the store is shared, so no locking is needed.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("cas: reading cache dir: %w", err)
	}
	type onDisk struct {
		key  Key
		path string
		job  bool
		mod  time.Time
		size int64
	}
	var files []onDisk
	for _, e := range entries {
		name := e.Name()
		stem, ok := strings.CutSuffix(name, ".blk")
		// Earlier builds kept whole-job results apart, as "<hex>.job" files
		// of the same entry format; they are entries like any other now.
		job := !ok
		if job {
			stem, ok = strings.CutSuffix(name, ".job")
		}
		k, isKey := parseKey(stem)
		if e.IsDir() || !ok || !isKey {
			continue
		}
		path := filepath.Join(s.opts.Dir, name)
		if job && len(files) > 0 && files[len(files)-1].key == k {
			// ReadDir sorts by name, so a ".blk" file of the same key came
			// just before: the current format wins.
			_ = os.Remove(path)
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, onDisk{key: k, path: path, job: job, mod: info.ModTime(), size: info.Size()})
	}
	// Oldest first: inserting in age order makes the LRU evict the oldest
	// entries when the reloaded set exceeds the byte budget.
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files {
		if f.job {
			// Renamed to ".blk", so that no file sits outside the store's
			// bookkeeping and an eviction removes it.
			path := s.entryPath(f.key)
			if err := os.Rename(f.path, path); err != nil {
				_ = os.Remove(f.path)
				continue
			}
			f.path = path
		}
		if s.opts.MaxBytes > 0 && f.size-int64(len(Key{})) > s.opts.MaxBytes {
			continue // the budget would refuse it: not worth reading
		}
		data, err := os.ReadFile(f.path)
		if err != nil {
			continue
		}
		content, payload, ok := splitEntry(data)
		if !ok {
			// Torn or flipped: whatever it holds is not the bytes that were
			// put, so it is not served, and the recompute writes it afresh.
			_ = os.Remove(f.path)
			continue
		}
		_, evicted := s.putLocked(f.key, content, payload)
		for _, path := range evicted {
			_ = os.Remove(path)
		}
	}
	return nil
}

// splitEntry parses an entry file: a 32-byte content key, then the payload,
// which must hash to it. Checking costs the one hash the payload gets in
// this process; the header is then the entry's content key.
func splitEntry(data []byte) (content Key, payload []byte, ok bool) {
	if len(data) < len(content) {
		return content, nil, false
	}
	copy(content[:], data)
	payload = data[len(content):]
	return content, payload, PayloadKey(payload) == content
}

// writeEntry writes an entry file: content, then payload. Best-effort like
// every file write of the store; a file a crash tore fails splitEntry at the
// next load and is recomputed.
func writeEntry(path string, content Key, payload []byte) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	_, err = f.Write(content[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path)
	}
}

// PutBlock inserts one payload — an encoded block, or a whole job's
// result under its JobKey — under k, refreshing recency if the same bytes
// are already resident there, and returns their content key,
// PayloadKey(payload). That hash is the only one the payload gets here: the
// entry keeps it, and GetBlock hands it back beside the bytes. Payloads
// larger than the byte budget are dropped (storing them would violate the
// never-exceed guarantee); their key is returned all the same.
func (s *Store) PutBlock(k Key, payload []byte) Key {
	content := PayloadKey(payload)
	s.mu.Lock()
	inserted, evicted := s.putLocked(k, content, payload)
	s.mu.Unlock()
	// Disk I/O stays outside the mutex: persistence is best-effort and a
	// racing insert of the same key writes identical bytes anyway. A key
	// that was already resident with these bytes has its file already, and
	// a dropped payload gets none.
	if s.opts.Dir != "" && inserted {
		for _, path := range evicted {
			_ = os.Remove(path)
		}
		writeEntry(s.entryPath(k), content, payload)
	}
	return content
}

// putLocked does the in-memory insert and eviction; content is
// PayloadKey(payload). It reports whether the payload became a new
// resident entry, and the file paths of evicted entries for the caller to
// remove after unlock.
func (s *Store) putLocked(k, content Key, payload []byte) (inserted bool, evictedPaths []string) {
	if el, ok := s.entries[k]; ok {
		e := el.Value.(*entry)
		if e.content == content {
			s.lru.MoveToFront(el)
			return false, nil
		}
		// One key, two payloads: a job's result JSON written by another
		// run of the same spec, or an entry file that disagrees with
		// whoever puts now. The newest put wins: drop the resident entry
		// and insert the new one, so the file is rewritten too.
		s.lru.Remove(el)
		delete(s.entries, k)
		s.bytes -= int64(len(e.payload))
	}
	size := int64(len(payload))
	if s.opts.MaxBytes > 0 && size > s.opts.MaxBytes {
		return false, nil
	}
	el := s.lru.PushFront(&entry{key: k, content: content, payload: payload})
	s.entries[k] = el
	s.bytes += size
	for s.opts.MaxBytes > 0 && s.bytes > s.opts.MaxBytes {
		back := s.lru.Back()
		if back == nil || back == el {
			break
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.payload))
		s.evictions.Add(1)
		if s.opts.Dir != "" {
			evictedPaths = append(evictedPaths, s.entryPath(e.key))
		}
	}
	return true, evictedPaths
}

// GetBlock looks an entry up, counting a hit or miss for the given layer
// and refreshing recency on hit. On a hit it returns the payload and its
// content key, PayloadKey(payload), as the entry keeps it: the caller need
// not hash the bytes again. The returned payload must not be mutated.
func (s *Store) GetBlock(k Key, layer Layer) (payload []byte, content Key, ok bool) {
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry)
		payload, content = e.payload, e.content
	}
	s.mu.Unlock()
	if !ok {
		s.misses.add(layer)
		return nil, Key{}, false
	}
	s.hits.add(layer)
	return payload, content, true
}

// Snapshot materializes the counters for /metrics.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	st := Stats{Bytes: s.bytes, Entries: len(s.entries)}
	s.mu.Unlock()
	st.Hits = s.hits.snapshot()
	st.Misses = s.misses.snapshot()
	st.Evictions = s.evictions.Load()
	return st
}

func (s *Store) entryPath(k Key) string {
	return filepath.Join(s.opts.Dir, k.String()+".blk")
}

// PeerSet tracks which content keys one peer (a slave or fleet member)
// currently holds: its known-set for delta shipping (engine.Known). Holds
// counts against the issuing store's wire-layer hit/miss series — a hit is
// a block that did not have to be reshipped — and a set issued by a nil
// store counts nothing. The zero value is not usable; obtain one from
// NewPeerSet.
type PeerSet struct {
	store *Store
	mu    sync.Mutex
	keys  map[Key]struct{}
}

// NewPeerSet issues an empty known-set bound to this store's wire-layer
// counters; s may be nil.
func (s *Store) NewPeerSet() *PeerSet {
	return &PeerSet{store: s, keys: make(map[Key]struct{})}
}

// Holds reports whether the peer holds k, counting a wire hit or miss.
func (p *PeerSet) Holds(k Key) bool {
	ok := p.Has(k)
	switch {
	case p.store == nil:
	case ok:
		p.store.hits.add(LayerWire)
	default:
		p.store.misses.add(LayerWire)
	}
	return ok
}

// Has reports whether the peer holds k without counting a lookup: a
// scheduling score, not a shipping decision.
func (p *PeerSet) Has(k Key) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.keys[k]
	return ok
}

// Note records that the peer now holds k.
func (p *PeerSet) Note(k Key) {
	p.mu.Lock()
	p.keys[k] = struct{}{}
	p.mu.Unlock()
}

// Reset forgets everything — called when the peer provably dropped its
// blocks (a fleet member whose attached-job set emptied, a reconnect).
func (p *PeerSet) Reset() {
	p.mu.Lock()
	p.keys = make(map[Key]struct{})
	p.mu.Unlock()
}
