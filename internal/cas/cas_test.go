package cas

import (
	"fmt"
	"math/rand"
	"os"
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
	if _, ok := s.GetBlock(k, LayerMaster); ok {
		t.Fatal("hit on empty store")
	}
	s.PutBlock(k, []byte("x"))
	got, ok := s.GetBlock(k, LayerServer)
	if !ok || string(got) != "x" {
		t.Fatalf("GetBlock = %q, %v", got, ok)
	}
	st := s.Snapshot()
	if st.Hits[LayerServer] != 1 || st.Misses[LayerMaster] != 1 {
		t.Fatalf("layer counters wrong: %+v", st)
	}
	if st.Blocks != 1 || st.Bytes != 1 {
		t.Fatalf("snapshot wrong: %+v", st)
	}
}

// The byte budget is a hard invariant: after any sequence of inserts the
// resident block bytes never exceed MaxBytes, oversized payloads are
// refused outright, and recency protects recently touched entries.
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
		s.PutBlock(k, payload)
		keys = append(keys, k)
		// Touch a random older key to exercise recency moves.
		if len(keys) > 2 {
			s.GetBlock(keys[rng.Intn(len(keys))], LayerMaster)
		}
		if st := s.Snapshot(); st.Bytes > budget {
			t.Fatalf("insert %d: resident bytes %d exceed budget %d", i, st.Bytes, budget)
		}
	}
	if st := s.Snapshot(); st.BlockEvictions == 0 {
		t.Fatal("500 inserts over a 1KiB budget evicted nothing")
	}

	// An oversized payload is not stored at all.
	big := make([]byte, budget+1)
	bk := PayloadKey(big)
	s.PutBlock(bk, big)
	if _, ok := s.GetBlock(bk, LayerMaster); ok {
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
	if _, ok := s.GetBlock(fk, LayerMaster); !ok {
		t.Fatal("hot entry was evicted ahead of cold ones")
	}
}

func TestJobTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, err := NewStore(Options{JobTTL: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	k := JobKey("digest")
	s.PutJob(k, []byte("result"))
	if _, ok := s.GetJob(k, LayerServer); !ok {
		t.Fatal("fresh job entry missing")
	}
	now = now.Add(59 * time.Second)
	if _, ok := s.GetJob(k, LayerServer); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(2 * time.Second)
	if _, ok := s.GetJob(k, LayerServer); ok {
		t.Fatal("entry survived its TTL")
	}
	if st := s.Snapshot(); st.JobEvictions != 1 || st.Jobs != 0 {
		t.Fatalf("TTL sweep not reflected: %+v", st)
	}
	// Re-put refreshes the pin.
	s.PutJob(k, []byte("result2"))
	now = now.Add(59 * time.Second)
	if got, ok := s.GetJob(k, LayerServer); !ok || string(got) != "result2" {
		t.Fatalf("re-put entry = %q, %v", got, ok)
	}
}

// fakeClock is a settable Options.Clock.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

// residentJobs reports which of keys the store still answers, in order.
func residentJobs(s *Store, keys []Key) []bool {
	out := make([]bool, len(keys))
	for i, k := range keys {
		_, out[i] = s.GetJob(k, LayerServer)
	}
	return out
}

func TestJobRefreshMovesDeadline(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	s, err := NewStore(Options{JobTTL: time.Minute, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	refreshed, other := JobKey("refreshed"), JobKey("other")
	s.PutJob(refreshed, []byte("v1"))
	clock.now = clock.now.Add(30 * time.Second)
	s.PutJob(other, []byte("other"))
	clock.now = clock.now.Add(10 * time.Second)
	s.PutJob(refreshed, []byte("v2")) // deadline moves from +60s to +100s

	clock.now = time.Unix(1000, 0).Add(61 * time.Second) // past the old deadline
	if got, ok := s.GetJob(refreshed, LayerServer); !ok || string(got) != "v2" {
		t.Fatalf("refreshed key at its old deadline = %q, %v; want v2, resident", got, ok)
	}
	if st := s.Snapshot(); st.Jobs != 2 || st.JobEvictions != 0 || st.Bytes != int64(len("v2")+len("other")) {
		t.Fatalf("after the old deadline: %+v", st)
	}
	// The refresh left no stale entry ahead of other: other expires at its
	// own deadline, the refreshed key at its new one.
	clock.now = time.Unix(1000, 0).Add(91 * time.Second)
	if got := residentJobs(s, []Key{refreshed, other}); !got[0] || got[1] {
		t.Fatalf("at other's deadline resident = %v, want [true false]", got)
	}
	clock.now = time.Unix(1000, 0).Add(101 * time.Second)
	if got := residentJobs(s, []Key{refreshed}); got[0] {
		t.Fatal("refreshed key survived its new deadline")
	}
	if st := s.Snapshot(); st.Jobs != 0 || st.JobEvictions != 2 || st.Bytes != 0 {
		t.Fatalf("after both deadlines: %+v", st)
	}
}

func TestJobsExpireOldestFirst(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clock := &fakeClock{now: t0}
	s, err := NewStore(Options{JobTTL: time.Minute, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = JobKey(fmt.Sprint("job-", i))
		clock.now = t0.Add(time.Duration(i) * 10 * time.Second)
		s.PutJob(keys[i], []byte{byte(i)})
	}
	for i := range keys {
		// Just past key i's deadline: keys 0..i are gone, the rest stay.
		clock.now = t0.Add(time.Minute + time.Duration(i)*10*time.Second)
		s.GetJob(JobKey("probe"), LayerServer) // expires what is due
		if st := s.Snapshot(); st.Jobs != len(keys)-i-1 || st.JobEvictions != int64(i+1) {
			t.Fatalf("at key %d's deadline %d resident, %d expired", i, st.Jobs, st.JobEvictions)
		}
		got := residentJobs(s, keys)
		for k, live := range got {
			if want := k > i; live != want {
				t.Fatalf("at key %d's deadline, key %d resident = %v, want %v", i, k, live, want)
			}
		}
	}
}

// A reloaded directory expires its job entries oldest file first,
// whatever order they were written in.
func TestJobOrderSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s, err := NewStore(Options{Dir: dir, JobTTL: time.Minute, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{JobKey("a"), JobKey("b"), JobKey("c")}
	ages := []time.Duration{20 * time.Second, 0, 10 * time.Second} // b oldest, then c, then a
	for i, k := range keys {
		s.PutJob(k, []byte("job"))
		mod := t0.Add(ages[i])
		if err := os.Chtimes(s.jobPath(k), mod, mod); err != nil {
			t.Fatal(err)
		}
	}

	clock := &fakeClock{now: t0.Add(30 * time.Second)}
	s2, err := NewStore(Options{Dir: dir, JobTTL: time.Minute, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		at   time.Duration
		want []bool // resident a, b, c
	}{
		{61 * time.Second, []bool{true, false, true}},
		{71 * time.Second, []bool{true, false, false}},
		{81 * time.Second, []bool{false, false, false}},
	} {
		clock.now = t0.Add(step.at)
		s2.GetJob(JobKey("probe"), LayerServer) // expires what is due
		if st := s2.Snapshot(); st.Jobs != countTrue(step.want) {
			t.Fatalf("at +%v %d jobs resident, want %d: an expired entry is stuck behind a live one", step.at, st.Jobs, countTrue(step.want))
		}
		for i, k := range keys {
			_, err := os.Stat(s2.jobPath(k))
			if onDisk := err == nil; onDisk != step.want[i] {
				t.Fatalf("at +%v file of key %d on disk = %v, want %v", step.at, i, onDisk, step.want[i])
			}
		}
		if got := residentJobs(s2, keys); fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Fatalf("at +%v resident = %v, want %v", step.at, got, step.want)
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// BenchmarkGetJobResident looks one key up among 10 000 live whole-job
// entries: the lookup must not pay for the entries it does not expire.
func BenchmarkGetJobResident(b *testing.B) {
	s, err := NewStore(Options{})
	if err != nil {
		b.Fatal(err)
	}
	const resident = 10000
	keys := make([]Key, resident)
	for i := range keys {
		keys[i] = JobKey(fmt.Sprint("job-", i))
		s.PutJob(keys[i], []byte("result"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.GetJob(keys[i%resident], LayerServer); !ok {
			b.Fatal("resident job missing")
		}
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
	s.PutJob(jk, []byte("job"))

	// A second store over the same directory sees both entries.
	s2, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.GetBlock(bk, LayerMaster); !ok || string(got) != "block" {
		t.Fatalf("reloaded block = %q, %v", got, ok)
	}
	if got, ok := s2.GetJob(jk, LayerServer); !ok || string(got) != "job" {
		t.Fatalf("reloaded job = %q, %v", got, ok)
	}

	// Junk files are ignored, not fatal.
	if err := os.WriteFile(dir+"/not-a-key.blk", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(Options{Dir: dir}); err != nil {
		t.Fatalf("junk file broke reload: %v", err)
	}
}

// A warm rerun puts every block it has just absorbed from the store. A
// resident key already has its file: the second put must not rewrite it.
func TestPutBlockResidentKeySkipsFileWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("block")
	k := PayloadKey(payload)
	s.PutBlock(k, payload)
	path := s.blockPath(k)
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

	// Different bytes under a resident content address mean the resident
	// copy is damaged: the put replaces it, in memory and on disk.
	if err := os.WriteFile(path, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := NewStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s3.PutBlock(k, payload)
	if got, _ := s3.GetBlock(k, LayerMaster); string(got) != "block" {
		t.Fatalf("damaged resident entry kept: %q", got)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "block" {
		t.Fatalf("damaged file kept: %q, %v", got, err)
	}
	if st := s3.Snapshot(); st.Bytes != int64(len(payload)) || st.Blocks != 1 {
		t.Fatalf("replacement miscounted: %+v", st)
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
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
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
				s.PutJob(JobKey(fmt.Sprint(i%7)), payload)
				s.GetJob(JobKey(fmt.Sprint(i%5)), LayerServer)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := s.Snapshot(); st.Bytes < 0 {
		t.Fatalf("negative resident bytes: %+v", st)
	}
}
