package fleet

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

// TestFleetCacheWarmResubmission covers the master and wire cache layers
// over a real TCP fleet: a cold job fills the store and — with a single
// worker — must suppress reships of blocks the worker already holds
// (content-keyed PeerSet refs); an identical resubmission completes
// entirely from cache without dispatching one task.
func TestFleetCacheWarmResubmission(t *testing.T) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		Cache:             store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		_ = RunWorker(wctx, testBuilder, WorkerOptions{
			Addr: f.Addr(),
			Name: "w0",
			Run:  core.Config{Threads: 2},
		})
	}()

	prob, want := mustProblem(t, "edit")
	req := JobRequest{Name: "edit", CacheKey: "fleet-cache:edit"}

	cold, err := f.Run(context.Background(), prob, req)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "cold", cold.Store.Assemble(), want)
	if cold.Stats.CacheHits != 0 || cold.Stats.CacheMisses == 0 {
		t.Fatalf("cold run cache counters wrong: %+v", cold.Stats)
	}
	// With one worker, every dependency block is that worker's own
	// output, noted in its PeerSet when the result arrived — so every
	// task ships references only, never a payload block.
	if cold.Stats.BlocksShipped != 0 {
		t.Fatalf("single-worker run reshipped its own outputs: %+v", cold.Stats)
	}
	if cold.Stats.BlocksSkipped == 0 {
		t.Fatalf("single-worker run suppressed no reships: %+v", cold.Stats)
	}
	if st := store.Snapshot(); st.Hits[cas.LayerWire] == 0 {
		t.Fatalf("wire layer recorded no hits: %+v", st)
	}

	warm, err := f.Run(context.Background(), prob, req)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "warm", warm.Store.Assemble(), want)
	if warm.Stats.Tasks != 0 || warm.Stats.Dispatches != 0 {
		t.Fatalf("warm resubmission dispatched work: %+v", warm.Stats)
	}
	if warm.Stats.CacheHits != cold.Stats.Tasks {
		t.Fatalf("warm hits %d != cold tasks %d", warm.Stats.CacheHits, cold.Stats.Tasks)
	}
	checkCachedPayloads(t, store, req.CacheKey, prob, warm.Store.Geometry(), want)

	// A different CacheKey over the same store recomputes from scratch.
	other, err := f.Run(context.Background(), prob, JobRequest{Name: "edit", CacheKey: "fleet-cache:edit-v2"})
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "rekeyed", other.Store.Assemble(), want)
	if other.Stats.CacheHits != 0 {
		t.Fatalf("re-keyed job reused old entries: %+v", other.Stats)
	}

	stopWorker()
	f.Close()
	wwg.Wait()
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

// TestFleetCacheKeyEmptyDisables: without a CacheKey the job neither
// probes nor fills the store, even when the fleet has one attached.
func TestFleetCacheKeyEmptyDisables(t *testing.T) {
	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New[int32](Options{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		Cache:             store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		_ = RunWorker(wctx, testBuilder, WorkerOptions{
			Addr: f.Addr(),
			Name: "w0",
			Run:  core.Config{Threads: 2},
		})
	}()

	prob, want := mustProblem(t, "edit")
	res, err := f.Run(context.Background(), prob, JobRequest{Name: "edit"})
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, "uncached", res.Store.Assemble(), want)
	if res.Stats.CacheHits != 0 || res.Stats.CacheMisses != 0 {
		t.Fatalf("uncached job touched the cache: %+v", res.Stats)
	}
	if st := store.Snapshot(); st.Entries != 0 {
		t.Fatalf("uncached job filled the store: %+v", st)
	}

	stopWorker()
	f.Close()
	wwg.Wait()
}
