package core_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// cacheKernel is one DP application under cache test: the problem, its
// sequential reference matrix, and any partition override it needs.
type cacheKernel struct {
	name string
	prob core.Problem[int32]
	want [][]int32
	cfg  func(*core.Config)
}

func cacheKernels() []cacheKernel {
	a := dp.RandomDNA(61, 1)
	b := dp.RandomDNA(53, 2)
	e := dp.NewEditDistance(a, b)
	l := dp.NewLCS(a, b)
	nw := dp.NewNeedlemanWunsch(a, b)
	s := dp.NewSWGG(dp.RandomDNA(48, 3), dp.MutateSeq(dp.RandomDNA(48, 3), dp.DNAAlphabet, 0.2, 4))
	nu := dp.NewNussinov(dp.RandomRNA(50, 5))
	k := dp.NewKnapsack(24, 60, 6)
	return []cacheKernel{
		{name: "editdist", prob: e.Problem(), want: e.Sequential()},
		{name: "lcs", prob: l.Problem(), want: l.Sequential()},
		{name: "nw", prob: nw.Problem(), want: nw.Sequential()},
		{name: "swgg", prob: s.Problem(), want: s.Sequential()},
		{name: "nussinov", prob: nu.Problem(), want: nu.Sequential()},
		{name: "knapsack", prob: k.Problem(), want: k.Sequential(), cfg: func(c *core.Config) {
			c.ProcPartition = dag.Size{Rows: 6, Cols: 20}
			c.ThreadPartition = dag.Size{Rows: 2, Cols: 7}
		}},
	}
}

// TestCachedMatchesRecomputed is the cache's correctness contract: for
// every kernel, an uncached run, a cold cached run (filling the store)
// and a warm cached run (served entirely from it) all produce the exact
// matrix of the sequential reference. The warm run must not dispatch a
// single task.
func TestCachedMatchesRecomputed(t *testing.T) {
	for _, kn := range cacheKernels() {
		kn := kn
		t.Run(kn.name, func(t *testing.T) {
			t.Parallel()
			base := testConfig()
			if kn.cfg != nil {
				kn.cfg(&base)
			}

			plain, err := core.RunContext(context.Background(), kn.prob, base)
			if err != nil {
				t.Fatal(err)
			}
			equalMatrices(t, kn.name+"/uncached", plain.Matrix(), kn.want)

			store, err := cas.NewStore(cas.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cached := base
			cached.Cache = store
			cached.CacheKey = "cache-test:" + kn.name

			cold, err := core.RunContext(context.Background(), kn.prob, cached)
			if err != nil {
				t.Fatal(err)
			}
			equalMatrices(t, kn.name+"/cold", cold.Matrix(), kn.want)
			if cold.Stats.CacheHits != 0 {
				t.Fatalf("cold run hit a fresh store: %+v", cold.Stats)
			}
			if cold.Stats.CacheMisses == 0 {
				t.Fatalf("cold run never probed the cache: %+v", cold.Stats)
			}

			warm, err := core.RunContext(context.Background(), kn.prob, cached)
			if err != nil {
				t.Fatal(err)
			}
			equalMatrices(t, kn.name+"/warm", warm.Matrix(), kn.want)
			if warm.Stats.Tasks != 0 || warm.Stats.Dispatches != 0 {
				t.Fatalf("warm run dispatched work: %+v", warm.Stats)
			}
			if warm.Stats.CacheHits != cold.Stats.Tasks {
				t.Fatalf("warm hits %d != cold tasks %d", warm.Stats.CacheHits, cold.Stats.Tasks)
			}
			checkCachedPayloads(t, store, cached.CacheKey, kn.prob, warm.Store.Geometry(), kn.want)
		})
	}
}

// checkCachedPayloads reads back every cas entry a finished job committed,
// walking its DAG in topological order: each vertex's entry must be found
// under the block key its predecessors' payload hashes derive, be byte for
// byte the encoding of the sequential block, and carry its own hash as its
// stored content key. The job derived those keys from the ResultKey it
// recorded at commit, so a write through a block that aliases its payload,
// after the commit, breaks the walk or the bytes.
func checkCachedPayloads[T any](t *testing.T, store *cas.Store, cacheKey string, p core.Problem[T], geom dag.Geometry, want [][]T) {
	t.Helper()
	graph := dag.Build(p.Kernel.Pattern(), geom)
	parser := dag.NewParser(graph)
	keys := make(map[int32]cas.Key)
	for ready := parser.InitialReady(); len(ready) > 0; {
		v := ready[0]
		ready = ready[1:]
		var preds []cas.Key
		for _, d := range graph.Vertex(v).DataPre {
			preds = append(preds, keys[d])
		}
		r := geom.Rect(geom.PosOf(v))
		payload, content, ok := store.GetBlock(cas.BlockKey(cacheKey, r.Row0, r.Col0, r.Rows, r.Cols, preds), cas.LayerMaster)
		if !ok {
			t.Fatalf("vertex %d: no cas entry under the key its predecessors' payloads derive", v)
		}
		b := matrix.NewBlock[T](r)
		for i := 0; i < r.Rows; i++ {
			copy(b.Cells[i*r.Cols:(i+1)*r.Cols], want[r.Row0-geom.Region.Row0+i][r.Col0-geom.Region.Col0:])
		}
		fresh, err := matrix.EncodeBlocks(p.Codec, []*matrix.Block[T]{b})
		if err != nil || !bytes.Equal(payload, fresh) {
			t.Fatalf("vertex %d: cas payload is not the sequential block's encoding (%v)", v, err)
		}
		keys[v] = cas.PayloadKey(payload)
		if content != keys[v] {
			t.Fatalf("vertex %d: the store keeps content key %v for bytes that hash to %v", v, content, keys[v])
		}
		ready = append(ready, parser.Complete(v)...)
	}
}

// TestCacheKeyIsolation: two different problems sharing one store under
// different keys never observe each other's blocks; the same problem
// under a different key recomputes from scratch.
func TestCacheKeyIsolation(t *testing.T) {
	a := dp.RandomDNA(61, 1)
	b := dp.RandomDNA(53, 2)
	e := dp.NewEditDistance(a, b)
	l := dp.NewLCS(a, b)

	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Cache = store
	cfg.CacheKey = "iso:editdist"
	if _, err := core.RunContext(context.Background(), e.Problem(), cfg); err != nil {
		t.Fatal(err)
	}

	// Same store, different problem and key: full recompute, exact result.
	cfg.CacheKey = "iso:lcs"
	res, err := core.RunContext(context.Background(), l.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "lcs-under-shared-store", res.Matrix(), l.Sequential())
	if res.Stats.CacheHits != 0 {
		t.Fatalf("lcs run hit editdist entries: %+v", res.Stats)
	}

	// Same problem, different key: also a full recompute.
	cfg.CacheKey = "iso:editdist-v2"
	res, err = core.RunContext(context.Background(), e.Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 {
		t.Fatalf("re-keyed run reused old entries: %+v", res.Stats)
	}
}

// TestCacheEvictionDegradesToRecompute: a store too small to hold the
// whole job evicts mid-run. The warm rerun gets partial (possibly zero)
// hits, recomputes the rest, stays inside the byte budget throughout,
// and still produces the exact sequential matrix — eviction is a
// performance event, never a correctness one.
func TestCacheEvictionDegradesToRecompute(t *testing.T) {
	const budget = 2 << 10
	e := dp.NewEditDistance(dp.RandomDNA(61, 1), dp.RandomDNA(53, 2))

	store, err := cas.NewStore(cas.Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Cache = store
	cfg.CacheKey = "evict:editdist"

	for i := 0; i < 2; i++ {
		res, err := core.RunContext(context.Background(), e.Problem(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		equalMatrices(t, "evicting-run", res.Matrix(), e.Sequential())
		st := store.Snapshot()
		if st.Bytes > budget {
			t.Fatalf("run %d: resident bytes %d exceed budget %d", i, st.Bytes, budget)
		}
	}
	if st := store.Snapshot(); st.Evictions == 0 {
		t.Fatalf("a %dB budget never evicted: %+v", budget, st)
	}
}

// TestCorruptCacheFilesDegradeToRecompute damages every .blk file of a
// cache directory three ways. An entry whose payload claims 2³⁰×2³⁰ cells
// under a header that hashes it — the input that used to panic
// absorbCached in NewBlock — loads and fails to decode. A flipped last byte
// still decodes, to a block with one wrong cell, and a torn file may decode
// too: the store refuses both at open, so neither is resident nor a hit.
// Every rerun must treat every entry as a miss, recompute the exact matrix,
// and leave the directory healed for the run after it.
func TestCorruptCacheFilesDegradeToRecompute(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(61, 1), dp.RandomDNA(53, 2))
	for _, c := range []struct {
		name    string
		damage  func(file []byte) []byte
		refused bool // by the store at open, not by the decoder
	}{
		{"oversized", func([]byte) []byte {
			p := oversizedBlockPayload()
			k := cas.PayloadKey(p)
			return append(k[:], p...)
		}, false},
		{"bit-flipped", func(f []byte) []byte { f[len(f)-1] ^= 1; return f }, true},
		{"torn", func(f []byte) []byte { return f[:len(f)/2] }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			// run returns the job's stats and the store's at open and at the end.
			run := func() (core.Stats, cas.Stats, cas.Stats) {
				t.Helper()
				store, err := cas.NewStore(cas.Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				opened := store.Snapshot()
				cfg := testConfig()
				cfg.Cache = store
				cfg.CacheKey = "corrupt:editdist"
				res, err := core.RunContext(context.Background(), e.Problem(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				equalMatrices(t, "corrupt-cache-run", res.Matrix(), e.Sequential())
				return res.Stats, opened, store.Snapshot()
			}
			cold, _, _ := run()

			files, err := filepath.Glob(filepath.Join(dir, "*.blk"))
			if err != nil || int64(len(files)) != cold.Tasks {
				t.Fatalf("cold run left %d block files (%v), want %d", len(files), err, cold.Tasks)
			}
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(f, c.damage(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			st, opened, after := run()
			if st.CacheHits != 0 || st.Tasks != cold.Tasks {
				t.Fatalf("run over corrupt entries: %d hits, %d tasks, want 0 and %d", st.CacheHits, st.Tasks, cold.Tasks)
			}
			if c.refused && (opened.Entries != 0 || after.Hits[cas.LayerMaster] != 0) {
				t.Fatalf("the store opened %d damaged entries and counted %d hits on them", opened.Entries, after.Hits[cas.LayerMaster])
			}
			if st, _, _ := run(); st.Tasks != 0 || st.CacheHits != cold.Tasks {
				t.Fatalf("run after the recompute: %d hits, %d tasks, want %d and 0", st.CacheHits, st.Tasks, cold.Tasks)
			}
		})
	}
}

// benchCacheJob runs one editdist job; when warm is true the store has
// been pre-filled so the run completes from cache alone.
func benchCacheJob(b *testing.B, warm bool) {
	e := dp.NewEditDistance(dp.RandomDNA(200, 1), dp.RandomDNA(200, 2))
	// Make compute genuinely expensive so the benchmark measures the
	// recompute-vs-reuse gap, not runtime overhead.
	p := dp.Slow(e.Problem(), 500*time.Nanosecond)
	cfg := testConfig()
	cfg.ProcPartition = dag.Square(25)
	cfg.ThreadPartition = dag.Square(13)

	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cache = store
	cfg.CacheKey = "bench:editdist"
	if warm {
		if _, err := core.RunContext(context.Background(), p, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			store, err := cas.NewStore(cas.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cfg.Cache = store
		}
		res, err := core.RunContext(context.Background(), p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if warm && res.Stats.Tasks != 0 {
			b.Fatalf("warm run dispatched work: %+v", res.Stats)
		}
	}
}

func BenchmarkCacheColdJob(b *testing.B) { benchCacheJob(b, false) }
func BenchmarkCacheWarmJob(b *testing.B) { benchCacheJob(b, true) }
