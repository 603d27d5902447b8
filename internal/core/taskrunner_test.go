package core_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/matrix"
)

// TestTaskRunnerWalksTheDAG drives a TaskRunner the way the fleet worker
// and the simulator do — one vertex at a time, the data region as an
// encoded payload — over every vertex of a triangular and a row+column
// problem, in both wire formats: plain blocks, and keyed blocks where
// every dependency the runner has already seen travels as a 36-byte
// reference it resolves from its block cache. Either way the matrix must
// equal the sequential one.
func TestTaskRunnerWalksTheDAG(t *testing.T) {
	nu := dp.NewNussinov(dp.RandomRNA(40, 7))
	sw := dp.NewSWGG(dp.RandomDNA(32, 8), dp.RandomDNA(32, 9))
	for _, c := range []struct {
		name string
		prob core.Problem[int32]
		want [][]int32
	}{{"nussinov", nu.Problem(), nu.Sequential()}, {"swgg", sw.Problem(), sw.Sequential()}} {
		for _, keyed := range []bool{false, true} {
			proc := dag.Square(8)
			runner, err := core.NewTaskRunner(c.prob, core.Config{ProcPartition: proc, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if keyed {
				core.NewAttached[int32]().Attach(0, runner)
			}
			geom := dag.MatrixGeometry(c.prob.Size, proc)
			graph := dag.Build(c.prob.Kernel.Pattern(), geom)
			if runner.NumTasks() != len(graph.Verts) {
				t.Fatalf("%s: NumTasks = %d, grid has %d cells", c.name, runner.NumTasks(), len(graph.Verts))
			}
			parser := dag.NewParser(graph)
			store := matrix.NewStore[int32](geom)
			keys := make(map[int32][32]byte) // content key of each committed block
			sent := make(map[int32]bool)     // shipped in full once already
			refs := 0
			ready := parser.InitialReady()
			for len(ready) > 0 {
				v := ready[0]
				ready = ready[1:]
				var payload []byte
				if keyed {
					var full []matrix.KeyedBlock[int32]
					var known []matrix.BlockRef
					for _, d := range graph.Vertex(v).DataPre {
						b := store.Get(geom.PosOf(d))
						if sent[d] {
							known = append(known, matrix.BlockRef{Key: keys[d], Rect: b.Rect})
							continue
						}
						sent[d] = true
						full = append(full, matrix.KeyedBlock[int32]{Key: keys[d], Block: b})
					}
					refs += len(known)
					payload, err = matrix.EncodeBlocksKeyed(c.prob.Codec, full, known)
				} else {
					positions := make([]dag.Pos, 0, len(graph.Vertex(v).DataPre))
					for _, d := range graph.Vertex(v).DataPre {
						positions = append(positions, geom.PosOf(d))
					}
					payload, err = matrix.EncodeBlocks(c.prob.Codec, store.Gather(positions))
				}
				if err != nil {
					t.Fatal(err)
				}
				out, err := runner.Run(v, payload)
				if err != nil {
					t.Fatalf("%s keyed=%v: vertex %d: %v", c.name, keyed, v, err)
				}
				blocks, err := matrix.DecodeBlocks(c.prob.Codec, out)
				if err != nil || len(blocks) != 1 {
					t.Fatalf("%s: vertex %d returned %d blocks (%v)", c.name, v, len(blocks), err)
				}
				store.Put(geom.PosOf(v), blocks[0])
				keys[v] = [32]byte(cas.PayloadKey(out))
				sent[v] = true // a keyed runner keeps its own output
				ready = append(ready, parser.Complete(v)...)
			}
			if !parser.Finished() {
				t.Fatalf("%s: DAG did not drain", c.name)
			}
			equalMatrices(t, c.name, store.Assemble(), c.want)
			if keyed && refs == 0 {
				t.Fatalf("%s: no dependency ever travelled as a reference", c.name)
			}
			if runner.SubTasks() == 0 {
				t.Fatalf("%s: no thread-level sub-task counted", c.name)
			}
		}
	}
}

// A worker's block cache names whole blocks only, and hashes none. A keyed
// wavefront task carries its north dependency whole and the west and
// north-west ones as regions: the whole block is named by the key it
// travels under, the regions are not — the master never references one,
// and a region aliasing its task payload would keep all of it alive — and
// the computed output stays unnamed until a reference names it, which the
// next task's does, with no hash: the master derived that key.
func TestTaskRunnerCachesWholeBlocksOnly(t *testing.T) {
	var hashed int
	defer core.SetHashHook(func([]byte) { hashed++ })()
	e := dp.NewEditDistance(dp.RandomDNA(12, 1), dp.RandomDNA(12, 2))
	want := e.Sequential()
	proc := dag.Square(4)
	geom := dag.MatrixGeometry(e.Problem().Size, proc)
	runner, err := core.NewTaskRunner(e.Problem(), core.Config{ProcPartition: proc, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := core.NewAttached[int32]()
	held.Attach(0, runner)
	block := func(r dag.Rect) *matrix.Block[int32] {
		b := matrix.NewBlock[int32](r)
		for i := 0; i < r.Rows; i++ {
			copy(b.Cells[i*r.Cols:(i+1)*r.Cols], want[r.Row0+i][r.Col0:])
		}
		return b
	}
	run := func(p dag.Pos, full []matrix.KeyedBlock[int32], refs []matrix.BlockRef) []byte {
		t.Helper()
		payload, err := matrix.EncodeBlocksKeyed(e.Problem().Codec, full, refs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runner.Run(geom.ID(p), payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := matrix.DecodeBlocks(e.Problem().Codec, out)
		if err != nil || len(got) != 1 || !slices.Equal(got[0].Cells, block(geom.Rect(p)).Cells) {
			t.Fatalf("vertex %v computed %v (%v)", p, got, err)
		}
		return out
	}
	whole, west, corner := [32]byte{1}, [32]byte{2}, [32]byte{3}
	out := run(dag.Pos{Row: 1, Col: 1}, []matrix.KeyedBlock[int32]{
		{Key: whole, Block: block(dag.Rect{Row0: 0, Col0: 4, Rows: 4, Cols: 4})},
		{Key: west, Block: block(dag.Rect{Row0: 4, Col0: 3, Rows: 4, Cols: 1})},
		{Key: corner, Block: block(dag.Rect{Row0: 3, Col0: 3, Rows: 1, Cols: 1})},
	}, nil)
	if named, unnamed := held.Cached(); named != 1 || held.Named(whole) == nil || unnamed != 1 {
		t.Fatalf("cache names %d blocks (whole block %v) and keeps %d outputs, want the whole block and the output", named, held.Named(whole) != nil, unnamed)
	}
	// The master holds (1,1) under the key it derived at commit, and
	// references it whole in the task of its east neighbour.
	output := [32]byte(cas.PayloadKey(out))
	run(dag.Pos{Row: 1, Col: 2}, []matrix.KeyedBlock[int32]{
		{Key: [32]byte{4}, Block: block(dag.Rect{Row0: 0, Col0: 8, Rows: 4, Cols: 4})},
		{Key: [32]byte{5}, Block: block(dag.Rect{Row0: 3, Col0: 7, Rows: 1, Cols: 1})},
	}, []matrix.BlockRef{{Key: output, Rect: geom.Rect(dag.Pos{Row: 1, Col: 1})}})
	if named, unnamed := held.Cached(); named != 3 || held.Named(output) == nil || unnamed != 1 || hashed != 0 {
		t.Fatalf("cache names %d blocks (output %v), keeps %d outputs, %d payloads hashed; want the two whole blocks and the named output, one output, no hash",
			named, held.Named(output) != nil, unnamed, hashed)
	}
}

// A task frame is outside input: a vertex outside the grid, a payload that
// does not decode, a reference the runner never saw and one whose rect is
// another job's output but whose key is not that output's are errors, not
// panics. The last is checked, so it costs one hash.
func TestTaskRunnerRefusesBadTasks(t *testing.T) {
	e := dp.NewEditDistance(dp.RandomDNA(16, 1), dp.RandomDNA(16, 2))
	runner, err := core.NewTaskRunner(e.Problem(), core.Config{ProcPartition: dag.Square(4), Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.NewTaskRunner(e.Problem(), core.Config{ProcPartition: dag.Square(4), Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := core.NewAttached[int32]()
	held.Attach(0, runner)
	held.Attach(1, other)
	empty, err := matrix.EncodeBlocks(e.Problem().Codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	keyedEmpty, err := matrix.EncodeBlocksKeyed[int32](e.Problem().Codec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(0, keyedEmpty); err != nil { // its output sits at rect (0,0) 4x4
		t.Fatal(err)
	}
	var hashed int
	defer core.SetHashHook(func([]byte) { hashed++ })()
	ref := func(r dag.Rect) []byte {
		p, err := matrix.EncodeBlocksKeyed(e.Problem().Codec, nil, []matrix.BlockRef{{Key: [32]byte{1}, Rect: r}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	unseen, misnamed := ref(dag.Rect{Row0: 4, Rows: 4, Cols: 4}), ref(dag.Rect{Rows: 4, Cols: 4})
	for what, c := range map[string]struct {
		v       int32
		payload []byte
		want    string
	}{
		"negative vertex":      {-1, empty, "outside grid"},
		"vertex past the grid": {16, empty, "outside grid"},
		"truncated payload":    {0, empty[:2], "decoding data region"},
		"unresolved reference": {5, unseen, "decoding data region"},
		"misnamed output":      {5, misnamed, "decoding data region"},
	} {
		if _, err := runner.Run(c.v, c.payload); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", what, err, c.want)
		}
	}
	if hashed != 1 {
		t.Errorf("%d payloads hashed, want the one check of the misnamed output", hashed)
	}
	if _, err := core.NewTaskRunner(core.Problem[int32]{Name: "hollow"}, core.Config{}); err == nil {
		t.Error("NewTaskRunner accepted a problem without a kernel")
	}
}

// BenchmarkTaskRunnerKeyed times one keyed edit-distance vertex of a
// 128×128 block, the shape of a cached job's task: its north dependency
// shipped whole, its west and north-west ones as regions, to a worker whose
// block cache is fresh each time (reset off the clock).
func BenchmarkTaskRunnerKeyed(b *testing.B) {
	e := dp.NewEditDistance(dp.RandomDNA(256, 1), dp.RandomDNA(256, 2))
	want, codec := e.Sequential(), e.Problem().Codec
	proc := dag.Square(128)
	runner, err := core.NewTaskRunner(e.Problem(), core.Config{ProcPartition: proc, Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	block := func(r dag.Rect) *matrix.Block[int32] {
		blk := matrix.NewBlock[int32](r)
		for i := 0; i < r.Rows; i++ {
			copy(blk.Cells[i*r.Cols:(i+1)*r.Cols], want[r.Row0+i][r.Col0:])
		}
		return blk
	}
	payload, err := matrix.EncodeBlocksKeyed(codec, []matrix.KeyedBlock[int32]{
		{Key: [32]byte{1}, Block: block(dag.Rect{Row0: 0, Col0: 128, Rows: 128, Cols: 128})},
		{Key: [32]byte{2}, Block: block(dag.Rect{Row0: 128, Col0: 127, Rows: 128, Cols: 1})},
		{Key: [32]byte{3}, Block: block(dag.Rect{Row0: 127, Col0: 127, Rows: 1, Cols: 1})},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	v := dag.MatrixGeometry(e.Problem().Size, proc).ID(dag.Pos{Row: 1, Col: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core.NewAttached[int32]().Attach(0, runner)
		b.StartTimer()
		if _, err := runner.Run(v, payload); err != nil {
			b.Fatal(err)
		}
	}
}
