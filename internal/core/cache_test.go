package core_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
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
		})
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
	if st := store.Snapshot(); st.BlockEvictions == 0 {
		t.Fatalf("a %dB budget never evicted: %+v", budget, st)
	}
}

// TestCorruptCacheFilesDegradeToRecompute: every .blk file of a cache
// directory is overwritten with a payload whose header claims 2³⁰×2³⁰
// cells — the input that used to panic absorbCached in NewBlock. The
// rerun must treat every entry as a miss, recompute the exact matrix, and
// leave the directory healed for the run after it.
func TestCorruptCacheFilesDegradeToRecompute(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(61, 1), dp.RandomDNA(53, 2))
	dir := t.TempDir()
	run := func() core.Stats {
		t.Helper()
		store, err := cas.NewStore(cas.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Cache = store
		cfg.CacheKey = "corrupt:editdist"
		res, err := core.RunContext(context.Background(), e.Problem(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		equalMatrices(t, "corrupt-cache-run", res.Matrix(), e.Sequential())
		return res.Stats
	}
	cold := run()

	files, err := filepath.Glob(filepath.Join(dir, "*.blk"))
	if err != nil || int64(len(files)) != cold.Tasks {
		t.Fatalf("cold run left %d block files (%v), want %d", len(files), err, cold.Tasks)
	}
	for _, f := range files {
		if err := os.WriteFile(f, oversizedBlockPayload(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if st := run(); st.CacheHits != 0 || st.Tasks != cold.Tasks {
		t.Fatalf("run over corrupt entries: %d hits, %d tasks, want 0 and %d", st.CacheHits, st.Tasks, cold.Tasks)
	}
	if st := run(); st.Tasks != 0 || st.CacheHits != cold.Tasks {
		t.Fatalf("run after the recompute: %d hits, %d tasks, want %d and 0", st.CacheHits, st.Tasks, cold.Tasks)
	}
}

// benchCacheJob runs one editdist job; when warm is true the store has
// been pre-filled so the run completes from cache alone.
func benchCacheJob(b *testing.B, warm bool) {
	e := dp.NewEditDistance(dp.RandomDNA(200, 1), dp.RandomDNA(200, 2))
	cfg := testConfig()
	cfg.ProcPartition = dag.Square(25)
	cfg.ThreadPartition = dag.Square(13)
	// Make compute genuinely expensive so the benchmark measures the
	// recompute-vs-reuse gap, not runtime overhead.
	cfg.WorkDelayPerCell = 500 * time.Nanosecond

	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cache = store
	cfg.CacheKey = "bench:editdist"
	if warm {
		if _, err := core.RunContext(context.Background(), e.Problem(), cfg); err != nil {
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
		res, err := core.RunContext(context.Background(), e.Problem(), cfg)
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
