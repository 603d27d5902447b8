package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/testseed"
)

// regionBytes is the task payload volume of one clean run when every task
// carries, of each dependency, exactly the region the pattern declares: a
// count per task, a rect header and the region's cells per dependency.
func regionBytes[T any](p core.Problem[T], proc dag.Size) int64 {
	geom := dag.MatrixGeometry(p.Size, proc)
	graph := dag.Build(p.Kernel.Pattern(), geom)
	var n int64
	for _, v := range graph.Existing() {
		n += 4
		for _, d := range graph.Vertex(v).DataPre {
			r := dag.DataRegion(graph.Pattern, geom, geom.PosOf(v), geom.PosOf(d))
			n += 16 + int64(r.Cells()*p.Codec.CellSize())
		}
	}
	return n
}

// checkRegionModes runs one problem of the wavefront family through core's
// three shipping modes — every task its full data region, an affinity
// run's known-sets by content key, and a cached run's, whose store counts
// their lookups — and wants the sequential matrix from each, the plain
// run's payload volume to be that of the declared regions, and a skipped
// dependency only where a slave holds the whole block.
func checkRegionModes[T any](t *testing.T, label string, p core.Problem[T], want [][]T, cfg core.Config) {
	t.Helper()
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"plain", "affinity", "cached"} {
		c := cfg
		switch mode {
		case "affinity":
			c.Policy = core.PolicyAffinity
		case "cached":
			c.Cache, c.CacheKey = store, label
		}
		res, err := core.RunContext(context.Background(), p, c)
		if err != nil {
			t.Fatalf("%s %s: %v", label, mode, err)
		}
		if !reflect.DeepEqual(res.Matrix(), want) {
			t.Fatalf("%s %s: matrix differs from Sequential()", label, mode)
		}
		st := res.Stats
		if mode == "plain" && st.Dispatches == st.Tasks && p.Codec.CellSize() > 0 {
			if bytes := regionBytes(p, c.ProcPartition); st.TaskBytes != bytes {
				t.Fatalf("%s: %d task payload bytes, the declared regions make %d", label, st.TaskBytes, bytes)
			}
		}
		if mode == "plain" && st.BlocksSkipped != 0 {
			t.Fatalf("%s plain: %d dependencies skipped without a known-set", label, st.BlocksSkipped)
		}
	}
}

// The five kernels of the wavefront family, over random sizes and
// partitions — clipped edge blocks, one-row and one-column blocks, a band
// narrower than a block — are bit-identical to Sequential() when a task is
// shipped a row, a column and a corner instead of three blocks.
func TestRegionShippingMatchesSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(testseed.Seed(t, 24)))
	upTo := func(max int) dag.Size { return dag.Size{Rows: 1 + rng.Intn(max), Cols: 1 + rng.Intn(max)} }
	for trial := 0; trial < 8; trial++ {
		size, proc, thread := upTo(36), upTo(12), upTo(5)
		width := rng.Intn(12)
		switch trial % 4 {
		case 1:
			proc.Rows = 1
		case 2:
			proc.Cols = 1
		case 3:
			proc, width = dag.Square(6+rng.Intn(6)), rng.Intn(3) // the band misses most of a block
		}
		cfg := core.Config{
			Slaves: 1 + rng.Intn(3), Threads: 1 + rng.Intn(2),
			ProcPartition: proc, ThreadPartition: thread,
			RunTimeout: time.Minute,
		}
		a, b := dp.RandomDNA(size.Rows, rng.Int63()), dp.RandomDNA(size.Cols, rng.Int63())
		at := fmt.Sprintf(" %v proc %v thread %v width %d trial %d", size, proc, thread, width, trial)
		e := dp.NewEditDistance(a, b)
		checkRegionModes(t, "editdist"+at, e.Problem(), e.Sequential(), cfg)
		l := dp.NewLCS(a, b)
		checkRegionModes(t, "lcs"+at, l.Problem(), l.Sequential(), cfg)
		nw := dp.NewNeedlemanWunsch(a, b)
		checkRegionModes(t, "needleman"+at, nw.Problem(), nw.Sequential(), cfg)
		be := dp.NewBandedEdit(a, b, width)
		checkRegionModes(t, "banded"+at, be.Problem(), be.Sequential(), cfg)
	}
}

// No cache key moved with the regions: a cache directory written before
// them (testdata/cache_pr23: edit distance 12x12 in 4x4 blocks, under the
// key below) serves the whole job without a dispatch. Its files were
// rewritten once into the entry format that heads each payload with its
// content key, under the same file names: no block key moved with that
// either.
func TestParentCacheDirectoryStaysWarm(t *testing.T) {
	dir := t.TempDir()
	entries, err := filepath.Glob(filepath.Join("testdata", "cache_pr23", "*.blk"))
	if err != nil || len(entries) != 9 {
		t.Fatalf("fixture: %d entries, %v", len(entries), err)
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := cas.NewStore(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := dp.NewEditDistance(dp.RandomDNA(12, 41), dp.RandomDNA(12, 42))
	res, err := core.RunContext(context.Background(), e.Problem(), core.Config{
		Slaves: 2, Threads: 1, ProcPartition: dag.Square(4), ThreadPartition: dag.Square(2),
		Cache: store, CacheKey: "parent-cache:editdist-12", RunTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	equalMatrices(t, "parent-cache", res.Matrix(), e.Sequential())
	if st := res.Stats; st.Dispatches != 0 || st.Tasks != 0 || st.CacheHits != 9 || st.CacheMisses != 0 {
		t.Fatalf("the parent's cache directory did not serve the job: %+v", st)
	}
}
