package cas

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestKeyDerivationDeterministic(t *testing.T) {
	if JobKey("abc") != JobKey("abc") {
		t.Fatal("JobKey not deterministic")
	}
	if JobKey("abc") == JobKey("abd") {
		t.Fatal("JobKey ignores the digest")
	}
	p1, p2 := PayloadKey([]byte("one")), PayloadKey([]byte("two"))
	if p1 == p2 {
		t.Fatal("PayloadKey collision on distinct payloads")
	}
	k := BlockKey("spec", 0, 0, 4, 4, []Key{p1, p2})
	if k != BlockKey("spec", 0, 0, 4, 4, []Key{p1, p2}) {
		t.Fatal("BlockKey not deterministic")
	}
	if k == BlockKey("spec", 0, 0, 4, 4, []Key{p2, p1}) {
		t.Fatal("BlockKey ignores predecessor order")
	}
	if k == BlockKey("spec", 0, 4, 4, 4, []Key{p1, p2}) {
		t.Fatal("BlockKey ignores the rectangle")
	}
	if k == BlockKey("other", 0, 0, 4, 4, []Key{p1, p2}) {
		t.Fatal("BlockKey ignores the spec digest")
	}
}

func TestKeyStringRoundTrip(t *testing.T) {
	k := PayloadKey([]byte("payload"))
	got, ok := parseKey(k.String())
	if !ok || got != k {
		t.Fatalf("parseKey(%q) = %v, %v", k.String(), got, ok)
	}
	if _, ok := parseKey("zz"); ok {
		t.Fatal("parseKey accepted a short string")
	}
	if _, ok := parseKey(string(make([]byte, 64))); ok {
		t.Fatal("parseKey accepted non-hex input")
	}
}

func TestBlockRoundTripAndLayerCounters(t *testing.T) {
	s, err := NewStore(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := PayloadKey([]byte("x"))
	if _, _, ok := s.GetBlock(k, LayerMaster); ok {
		t.Fatal("hit on empty store")
	}
	if content := s.PutBlock(k, []byte("x")); content != k {
		t.Fatalf("PutBlock returned content key %v, want %v", content, k)
	}
	got, content, ok := s.GetBlock(k, LayerServer)
	if !ok || string(got) != "x" || content != k {
		t.Fatalf("GetBlock = %q, %v, %v", got, content, ok)
	}
	st := s.Snapshot()
	if st.Hits[LayerServer] != 1 || st.Misses[LayerMaster] != 1 {
		t.Fatalf("layer counters wrong: %+v", st)
	}
	if st.Entries != 1 || st.Bytes != 1 {
		t.Fatalf("snapshot wrong: %+v", st)
	}
}

// The byte budget is a hard invariant: after any sequence of inserts —
// blocks and whole-job results alike — the resident bytes never exceed
// MaxBytes, oversized payloads are refused outright, and recency protects
// recently touched entries.
func TestBlockLRUBudgetProperty(t *testing.T) {
	const budget = 1 << 10
	s, err := NewStore(Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var keys []Key
	for i := 0; i < 500; i++ {
		n := rng.Intn(300) + 1
		payload := make([]byte, n)
		rng.Read(payload)
		k := PayloadKey(payload)
		if i%2 == 1 {
			// A whole job's result, under its JobKey.
			k = JobKey(fmt.Sprint("spec-", i))
		}
		s.PutBlock(k, payload)
		keys = append(keys, k)
		if st := s.Snapshot(); st.Bytes > budget {
			t.Fatalf("insert %d: resident bytes %d exceed budget %d", i, st.Bytes, budget)
		}
		// Touch a random older key to exercise recency moves.
		if len(keys) > 2 {
			s.GetBlock(keys[rng.Intn(len(keys))], LayerMaster)
		}
	}
	if st := s.Snapshot(); st.Evictions == 0 {
		t.Fatal("500 inserts over a 1KiB budget evicted nothing")
	}

	// An oversized payload is not stored at all.
	big := make([]byte, budget+1)
	bk := PayloadKey(big)
	if content := s.PutBlock(bk, big); content != bk {
		t.Fatalf("a refused payload's put returned %v, want its content key %v", content, bk)
	}
	if _, _, ok := s.GetBlock(bk, LayerMaster); ok {
		t.Fatal("payload larger than the budget was stored")
	}

	// The most recently used entry survives an eviction wave.
	fresh := []byte("fresh")
	fk := PayloadKey(fresh)
	s.PutBlock(fk, fresh)
	s.GetBlock(fk, LayerMaster)
	for i := 0; i < 50; i++ {
		p := make([]byte, 100)
		rng.Read(p)
		s.PutBlock(PayloadKey(p), p)
		s.GetBlock(fk, LayerMaster) // keep it hot
	}
	if _, _, ok := s.GetBlock(fk, LayerMaster); !ok {
		t.Fatal("hot entry was evicted ahead of cold ones")
	}
}

func TestDiskPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bk := PayloadKey([]byte("block"))
	jk := JobKey("digest")
	s.PutBlock(bk, []byte("block"))
	s.PutBlock(jk, []byte(`{"value":3}`))

	// A second store over the same directory sees both entries.
	s2, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, content, ok := s2.GetBlock(bk, LayerMaster); !ok || string(got) != "block" || content != bk {
		t.Fatalf("reloaded block = %q, %v, %v", got, content, ok)
	}
	if got, content, ok := s2.GetBlock(jk, LayerServer); !ok || string(got) != `{"value":3}` || content != PayloadKey(got) {
		t.Fatalf("reloaded job = %q, %v, %v", got, content, ok)
	}

	// Junk files are ignored, not fatal.
	if err := os.WriteFile(dir+"/not-a-key.blk", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(Options{Dir: dir}); err != nil {
		t.Fatalf("junk file broke reload: %v", err)
	}
}

// A put of the bytes a key already holds changes nothing: its file is not
// rewritten.
func TestPutBlockResidentKeySkipsFileWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("block")
	k := PayloadKey(payload)
	s.PutBlock(k, payload)
	path := s.entryPath(k)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatalf("first put wrote no file: %v", err)
	}
	// Age the file so a rewrite shows whatever the clock's resolution.
	old := before.ModTime().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	s.PutBlock(k, payload)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(old) || !os.SameFile(before, after) {
		t.Fatalf("second put of a resident key rewrote %s (mtime %v, want %v)", path, after.ModTime(), old)
	}
	// The same holds for a store that found the block on disk at start-up.
	s2, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2.PutBlock(k, payload)
	if after, err = os.Stat(path); err != nil || !after.ModTime().Equal(old) {
		t.Fatalf("put of a reloaded key rewrote %s: mtime %v, err %v", path, after.ModTime(), err)
	}

	// Different bytes under a resident block key: the newest put wins, in
	// memory and on disk.
	other := []byte("other")
	if content := s2.PutBlock(k, other); content != PayloadKey(other) {
		t.Fatalf("replacing put returned %v", content)
	}
	if got, content, _ := s2.GetBlock(k, LayerMaster); string(got) != "other" || content != PayloadKey(other) {
		t.Fatalf("replaced entry = %q under %v", got, content)
	}
	if got := readEntry(t, path); string(got) != "other" {
		t.Fatalf("replaced file holds %q", got)
	}
	if st := s2.Snapshot(); st.Bytes != int64(len(other)) || st.Entries != 1 {
		t.Fatalf("replacement miscounted: %+v", st)
	}
}

// readEntry reads an entry file and returns its payload, failing unless
// the file is the payload's content key followed by the payload.
func readEntry(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content, payload, ok := splitEntry(data)
	if !ok {
		t.Fatalf("%s: header %x does not hash its %d payload bytes", path, content, len(payload))
	}
	return payload
}

// checkStoredKeys is the one-hash rule's invariant: every key GetBlock
// returns is the sha256 of the bytes it returns, and GetBlock serves
// exactly the keys of want (block key → payload).
func checkStoredKeys(t *testing.T, s *Store, want map[Key][]byte, absent ...Key) {
	t.Helper()
	for k, w := range want {
		got, content, ok := s.GetBlock(k, LayerMaster)
		if !ok || string(got) != string(w) {
			t.Fatalf("block %v = %q, %v; want %q", k, got, ok, w)
		}
		if content != PayloadKey(got) {
			t.Fatalf("block %v: stored key %v, its bytes hash to %v", k, content, PayloadKey(got))
		}
	}
	for _, k := range absent {
		if _, _, ok := s.GetBlock(k, LayerMaster); ok {
			t.Fatalf("block %v is still served", k)
		}
	}
}

func TestStoredKeysHashTheirBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Options{Dir: dir, MaxBytes: 40})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := JobKey("a"), JobKey("b"), JobKey("c") // block keys name no content
	want := map[Key][]byte{a: []byte("payload-a"), b: []byte("payload-b")}
	for k, p := range want {
		s.PutBlock(k, p)
	}
	checkStoredKeys(t, s, want) // a put

	want[a] = []byte("damaged-a")
	s.PutBlock(a, want[a])
	checkStoredKeys(t, s, want) // different bytes under a resident key

	s.GetBlock(a, LayerMaster)                    // b is the least recently used
	want[c] = []byte("payload-c-is-twenty-three") // 9+9+25 > 40: evicts b
	s.PutBlock(c, want[c])
	if st := s.Snapshot(); st.Evictions != 1 {
		t.Fatalf("%+v, want one eviction", st)
	}
	delete(want, b)
	checkStoredKeys(t, s, want, b) // LRU eviction
	s.GetBlock(c, LayerMaster)     // now a is
	want[b] = []byte("payload-b")
	s.PutBlock(b, want[b])
	delete(want, a)
	checkStoredKeys(t, s, want, a) // and re-put

	s2, err := NewStore(Options{Dir: dir, MaxBytes: 40})
	if err != nil {
		t.Fatal(err)
	}
	checkStoredKeys(t, s2, want, a) // a reload from the directory
}

// An entry file is its content key, then the payload. A file whose payload
// does not hash to its header — a flipped bit, a torn write, a file too short
// to hold a header, or the headerless format of earlier builds — is refused
// at load and removed: it is not a hit, and whoever recomputes it writes it
// afresh. That holds for a job's result as for a block, and for the ".job"
// file an earlier build kept it in.
func TestEntryFilesVerifiedOnLoad(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"flipped": func(d []byte) []byte { d[len(d)-1] ^= 1; return d },
		"torn":    func(d []byte) []byte { return d[:len(d)-3] },
		"short":   func(d []byte) []byte { return d[:len(Key{})-1] },
		"bare":    func(d []byte) []byte { return d[len(Key{}):] },
	}
	for name, damage := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStore(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			bk, jk, pk, good := JobKey("block"), JobKey("job"), JobKey("parent job"), JobKey("good")
			s.PutBlock(bk, []byte("block payload"))
			s.PutBlock(good, []byte("intact"))
			s.PutBlock(jk, []byte(`{"value":3}`))
			s.PutBlock(pk, []byte(`{"value":4}`))
			if err := os.Rename(s.entryPath(pk), jobPath(dir, pk)); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{s.entryPath(bk), s.entryPath(jk), jobPath(dir, pk)} {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, damage(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2, err := NewStore(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			checkStoredKeys(t, s2, map[Key][]byte{good: []byte("intact")}, bk)
			for _, k := range []Key{jk, pk} {
				if _, _, ok := s2.GetBlock(k, LayerServer); ok {
					t.Fatal("a damaged job file was served")
				}
			}
			for _, path := range []string{s2.entryPath(bk), s2.entryPath(jk), s2.entryPath(pk), jobPath(dir, pk)} {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("%s: damaged file left on disk (%v)", path, err)
				}
			}
			st := s2.Snapshot()
			if st.Hits[LayerMaster] != 1 || st.Misses[LayerMaster] != 1 || st.Misses[LayerServer] != 2 || st.Entries != 1 {
				t.Fatalf("%+v: a refused file counted as an entry or a hit", st)
			}
			s2.PutBlock(bk, []byte("block payload"))
			if got := readEntry(t, s2.entryPath(bk)); string(got) != "block payload" {
				t.Fatalf("rewritten file holds %q", got)
			}
		})
	}
}

// jobPath is where an earlier build kept a whole job's result: a ".job"
// file in the entry format.
func jobPath(dir string, k Key) string {
	return filepath.Join(dir, k.String()+".job")
}

// A directory an earlier build wrote stays warm: each ".job" file is taken
// in as an ordinary entry and renamed to ".blk", so the byte budget evicts
// it, file and all, like any other entry. Beside a ".blk" file of the same
// key it is dropped.
func TestParentJobFilesTakenIn(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	jk, both := JobKey("spec"), JobKey("both")
	result := []byte(`{"value":3}`)
	for k, p := range map[Key][]byte{jk: result, both: []byte("stale")} {
		s.PutBlock(k, p)
		if err := os.Rename(s.entryPath(k), jobPath(dir, k)); err != nil {
			t.Fatal(err)
		}
	}
	s.PutBlock(both, []byte("current"))

	s2, err := NewStore(Options{Dir: dir, MaxBytes: 20})
	if err != nil {
		t.Fatal(err)
	}
	checkStoredKeys(t, s2, map[Key][]byte{jk: result, both: []byte("current")})
	s2.GetBlock(both, LayerMaster) // jk is the least recently used
	for _, k := range []Key{jk, both} {
		if _, err := os.Stat(jobPath(dir, k)); !os.IsNotExist(err) {
			t.Fatalf("a .job file is left outside the store (%v)", err)
		}
	}
	if got := readEntry(t, s2.entryPath(jk)); string(got) != string(result) {
		t.Fatalf("the renamed file holds %q", got)
	}
	s2.PutBlock(PayloadKey([]byte("a newer block")), []byte("a newer block"))
	checkStoredKeys(t, s2, nil, jk)
	if _, err := os.Stat(s2.entryPath(jk)); !os.IsNotExist(err) {
		t.Fatalf("the evicted entry's file is left on disk (%v)", err)
	}
}

// A block file larger than the byte budget is not read, so a store opened
// over a directory holds no more than its budget at any point of the load.
func TestLoadSkipsBlockOverBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	small, big := JobKey("small"), JobKey("big")
	s.PutBlock(small, []byte("tiny"))
	s.PutBlock(big, make([]byte, 64))
	s2, err := NewStore(Options{Dir: dir, MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkStoredKeys(t, s2, map[Key][]byte{small: []byte("tiny")}, big)
	if _, err := os.Stat(s2.entryPath(big)); err != nil {
		t.Fatalf("an intact file over this store's budget was removed: %v", err)
	}
}

// Reloading under a budget keeps the newest blocks: files are inserted
// oldest-first so the LRU evicts the stalest on overflow, and evicted
// entries disappear from disk too.
func TestDiskReloadRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("payload-%02d", i))
		s.PutBlock(PayloadKey(p), p)
	}
	s2, err := NewStore(Options{Dir: dir, MaxBytes: 30})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Snapshot(); st.Bytes > 30 {
		t.Fatalf("reload exceeded budget: %+v", st)
	}
}

func TestPeerSet(t *testing.T) {
	s, err := NewStore(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewPeerSet()
	k := PayloadKey([]byte("b"))
	if p.Holds(k) {
		t.Fatal("empty peer set holds a key")
	}
	p.Note(k)
	if !p.Holds(k) || !p.Has(k) {
		t.Fatal("noted key unknown")
	}
	if len(p.keys) != 1 {
		t.Fatalf("%d keys tracked, want 1", len(p.keys))
	}
	p.Reset()
	if p.Holds(k) || p.Has(k) {
		t.Fatal("key survived Reset")
	}
	st := s.Snapshot()
	if st.Hits[LayerWire] != 1 || st.Misses[LayerWire] != 2 {
		t.Fatalf("wire counters wrong (Has must count nothing): hits=%v misses=%v", st.Hits, st.Misses)
	}

	// A set no store issued tracks keys and counts nothing.
	var none *Store
	q := none.NewPeerSet()
	q.Note(k)
	if !q.Holds(k) || q.Holds(PayloadKey([]byte("c"))) {
		t.Fatal("a storeless peer set lost track of its keys")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := NewStore(Options{MaxBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(g)))
			p := s.NewPeerSet()
			for i := 0; i < 200; i++ {
				payload := make([]byte, rng.Intn(64)+1)
				rng.Read(payload)
				k := PayloadKey(payload)
				s.PutBlock(k, payload)
				s.GetBlock(k, LayerMaster)
				if !p.Holds(k) {
					p.Note(k)
				}
				s.PutBlock(JobKey(fmt.Sprint(i%7)), payload)
				s.GetBlock(JobKey(fmt.Sprint(i%5)), LayerServer)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := s.Snapshot(); st.Bytes < 0 || st.Bytes > 1<<12 {
		t.Fatalf("resident bytes out of [0, budget]: %+v", st)
	}
}
