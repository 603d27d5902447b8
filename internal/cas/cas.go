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
	// (one file per key, "<hex>.blk" / "<hex>.job": the payload's content
	// key, then the payload) and reloads them on open, refusing and
	// removing a file whose payload does not hash to its header. Empty
	// keeps the store purely in memory.
	Dir string
	// MaxBytes budgets the block entries' payload bytes; the least
	// recently used blocks are evicted once the budget is exceeded, and a
	// single payload larger than the budget is not stored at all, so the
	// store never holds more than MaxBytes of block data. Zero or
	// negative means unlimited. Whole-job entries are pinned until their
	// TTL and do not count against this budget.
	MaxBytes int64
	// JobTTL bounds how long a whole-job entry stays pinned (default 1h).
	JobTTL time.Duration
	// Clock overrides time.Now for TTL tests.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.JobTTL <= 0 {
		o.JobTTL = time.Hour
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
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

// blockEntry is one resident block. content is PayloadKey(payload), derived
// once, when the bytes entered the process — at the put of a result, or at
// the load of a file whose header it is — and handed back by every GetBlock.
type blockEntry struct {
	key     Key
	content Key
	payload []byte
}

type jobEntry struct {
	key     Key
	payload []byte
	expires time.Time
}

// Store is the content-addressed result store. Block entries live in a
// byte-budgeted LRU; whole-job entries are pinned until their TTL. All
// methods are safe for concurrent use; payloads are treated as immutable
// by both sides (callers must not mutate a slice after Put or the slice
// returned by Get).
type Store struct {
	opts Options

	mu         sync.Mutex
	blocks     map[Key]*list.Element // of *blockEntry
	lru        *list.List            // front = most recently used
	blockBytes int64
	jobs       map[Key]*list.Element // of *jobEntry
	// jobOrder holds the job entries in expiry order, front = first to
	// expire. The TTL is store-wide, so that is insertion order: a put
	// appends at the back, a refresh moves its entry there, and expiring
	// pops from the front until an entry is still live.
	jobOrder *list.List
	jobBytes int64

	hits           layerCount
	misses         layerCount
	blockEvictions atomic.Int64
	jobEvictions   atomic.Int64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Hits and Misses count lookups per consumer layer. A wire "hit" is a
	// block that did not have to be reshipped; a wire "miss" is one that
	// was.
	Hits   map[Layer]int64
	Misses map[Layer]int64
	// BlockEvictions counts blocks dropped by the LRU byte budget;
	// JobEvictions counts whole-job entries expired by TTL.
	BlockEvictions int64
	JobEvictions   int64
	// Bytes is the resident payload size (blocks + jobs); Blocks and Jobs
	// count resident entries.
	Bytes  int64
	Blocks int
	Jobs   int
}

// NewStore opens a store; when opts.Dir is set, existing entries are
// reloaded (oldest first, so the byte budget keeps the newest blocks) and
// already-expired job entries are removed.
func NewStore(opts Options) (*Store, error) {
	s := &Store{
		opts:     opts.withDefaults(),
		blocks:   make(map[Key]*list.Element),
		lru:      list.New(),
		jobs:     make(map[Key]*list.Element),
		jobOrder: list.New(),
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
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var job bool
		switch {
		case strings.HasSuffix(name, ".blk"):
		case strings.HasSuffix(name, ".job"):
			job = true
		default:
			continue
		}
		k, ok := parseKey(strings.TrimSuffix(strings.TrimSuffix(name, ".blk"), ".job"))
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, onDisk{key: k, path: filepath.Join(s.opts.Dir, name), job: job, mod: info.ModTime(), size: info.Size()})
	}
	// Oldest first: inserting in age order makes the LRU evict the oldest
	// blocks when the reloaded set exceeds the byte budget, and appends the
	// job entries in expiry order.
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	now := s.opts.Clock()
	for _, f := range files {
		var expires time.Time
		switch {
		case f.job:
			// A file dated in the future counts as written now, so no
			// reloaded entry expires after one put later.
			written := f.mod
			if written.After(now) {
				written = now
			}
			if expires = written.Add(s.opts.JobTTL); !now.Before(expires) {
				_ = os.Remove(f.path)
				continue
			}
		case s.opts.MaxBytes > 0 && f.size-int64(len(Key{})) > s.opts.MaxBytes:
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
		if f.job {
			s.putJobLocked(f.key, payload, expires)
			continue
		}
		_, evicted := s.putBlockLocked(f.key, content, payload)
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

// PutBlock inserts one encoded block payload under k, refreshing recency if
// the same bytes are already resident there, and returns their content key,
// PayloadKey(payload). That hash is the only one the payload gets here: the
// entry keeps it, and GetBlock hands it back beside the bytes. Payloads
// larger than the byte budget are dropped (storing them would violate the
// never-exceed guarantee); their key is returned all the same.
func (s *Store) PutBlock(k Key, payload []byte) Key {
	content := PayloadKey(payload)
	s.mu.Lock()
	inserted, evicted := s.putBlockLocked(k, content, payload)
	s.mu.Unlock()
	// Disk I/O stays outside the mutex: persistence is best-effort and a
	// racing insert of the same key writes identical bytes anyway. A key
	// that was already resident with these bytes has its file already, and
	// a dropped payload gets none.
	if s.opts.Dir != "" && inserted {
		for _, path := range evicted {
			_ = os.Remove(path)
		}
		writeEntry(s.blockPath(k), content, payload)
	}
	return content
}

// putBlockLocked does the in-memory insert and eviction; content is
// PayloadKey(payload). It reports whether the payload became a new
// resident entry, and the file paths of evicted entries for the caller to
// remove after unlock.
func (s *Store) putBlockLocked(k, content Key, payload []byte) (inserted bool, evictedPaths []string) {
	if el, ok := s.blocks[k]; ok {
		be := el.Value.(*blockEntry)
		if be.content == content {
			s.lru.MoveToFront(el)
			return false, nil
		}
		// One block key, two payloads: the kernel or the entry's writer
		// disagrees with whoever puts now. The newest put wins: drop the
		// resident entry and insert the new one, so the file is rewritten
		// too.
		s.lru.Remove(el)
		delete(s.blocks, k)
		s.blockBytes -= int64(len(be.payload))
	}
	size := int64(len(payload))
	if s.opts.MaxBytes > 0 && size > s.opts.MaxBytes {
		return false, nil
	}
	el := s.lru.PushFront(&blockEntry{key: k, content: content, payload: payload})
	s.blocks[k] = el
	s.blockBytes += size
	for s.opts.MaxBytes > 0 && s.blockBytes > s.opts.MaxBytes {
		back := s.lru.Back()
		if back == nil || back == el {
			break
		}
		be := back.Value.(*blockEntry)
		s.lru.Remove(back)
		delete(s.blocks, be.key)
		s.blockBytes -= int64(len(be.payload))
		s.blockEvictions.Add(1)
		if s.opts.Dir != "" {
			evictedPaths = append(evictedPaths, s.blockPath(be.key))
		}
	}
	return true, evictedPaths
}

// GetBlock looks a block up, counting a hit or miss for the given layer
// and refreshing recency on hit. On a hit it returns the payload and its
// content key, PayloadKey(payload), as the entry keeps it: the caller need
// not hash the bytes again. The returned payload must not be mutated.
func (s *Store) GetBlock(k Key, layer Layer) (payload []byte, content Key, ok bool) {
	s.mu.Lock()
	el, ok := s.blocks[k]
	if ok {
		s.lru.MoveToFront(el)
		be := el.Value.(*blockEntry)
		payload, content = be.payload, be.content
	}
	s.mu.Unlock()
	if !ok {
		s.misses.add(layer)
		return nil, Key{}, false
	}
	s.hits.add(layer)
	return payload, content, true
}

// PutJob inserts a whole-job entry, pinned until the store's TTL. A key
// already resident is refreshed: its new deadline is the latest, so it
// moves to the back of the expiry order.
func (s *Store) PutJob(k Key, payload []byte) {
	now := s.opts.Clock()
	s.mu.Lock()
	expiredPaths := s.sweepJobsLocked(now)
	s.putJobLocked(k, payload, now.Add(s.opts.JobTTL))
	s.mu.Unlock()
	if s.opts.Dir != "" {
		for _, path := range expiredPaths {
			_ = os.Remove(path)
		}
		writeEntry(s.jobPath(k), PayloadKey(payload), payload)
	}
}

// GetJob looks a whole-job entry up, expiring it first if its TTL has
// passed.
func (s *Store) GetJob(k Key, layer Layer) ([]byte, bool) {
	now := s.opts.Clock()
	s.mu.Lock()
	expiredPaths := s.sweepJobsLocked(now)
	var payload []byte
	el, ok := s.jobs[k]
	if ok {
		payload = el.Value.(*jobEntry).payload
	}
	s.mu.Unlock()
	if s.opts.Dir != "" {
		for _, path := range expiredPaths {
			_ = os.Remove(path)
		}
	}
	if !ok {
		s.misses.add(layer)
		return nil, false
	}
	s.hits.add(layer)
	return payload, true
}

// putJobLocked inserts k, or refreshes it in place, at the back of the
// expiry order; expires must be no earlier than any resident deadline.
func (s *Store) putJobLocked(k Key, payload []byte, expires time.Time) {
	if el, ok := s.jobs[k]; ok {
		e := el.Value.(*jobEntry)
		s.jobBytes += int64(len(payload)) - int64(len(e.payload))
		e.payload, e.expires = payload, expires
		s.jobOrder.MoveToBack(el)
		return
	}
	s.jobs[k] = s.jobOrder.PushBack(&jobEntry{key: k, payload: payload, expires: expires})
	s.jobBytes += int64(len(payload))
}

// sweepJobsLocked drops the expired job entries, front of the expiry order
// first, and returns their file paths. It visits only those and the first
// live entry, however many are resident.
func (s *Store) sweepJobsLocked(now time.Time) (expiredPaths []string) {
	for el := s.jobOrder.Front(); el != nil; el = s.jobOrder.Front() {
		e := el.Value.(*jobEntry)
		if now.Before(e.expires) {
			break
		}
		s.jobOrder.Remove(el)
		delete(s.jobs, e.key)
		s.jobBytes -= int64(len(e.payload))
		s.jobEvictions.Add(1)
		if s.opts.Dir != "" {
			expiredPaths = append(expiredPaths, s.jobPath(e.key))
		}
	}
	return expiredPaths
}

// Snapshot materializes the counters for /metrics.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Bytes:  s.blockBytes + s.jobBytes,
		Blocks: len(s.blocks),
		Jobs:   len(s.jobs),
	}
	s.mu.Unlock()
	st.Hits = s.hits.snapshot()
	st.Misses = s.misses.snapshot()
	st.BlockEvictions = s.blockEvictions.Load()
	st.JobEvictions = s.jobEvictions.Load()
	return st
}

func (s *Store) blockPath(k Key) string {
	return filepath.Join(s.opts.Dir, k.String()+".blk")
}

func (s *Store) jobPath(k Key) string {
	return filepath.Join(s.opts.Dir, k.String()+".job")
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

// Len reports the tracked key count (tests and debugging).
func (p *PeerSet) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.keys)
}
