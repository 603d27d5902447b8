package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/server"
)

// FuzzSubmit posts arbitrary bytes to POST /v1/jobs: a body is refused or
// accepted without a panic, and an accepted job answers what its kernel's
// sequential reference does, on a matrix no larger than MaxCells. The
// seeds are the server suite's specs and two specs that were once sized
// only after their inputs were generated.
func FuzzSubmit(f *testing.F) {
	for _, spec := range []server.JobSpec{
		{Kernel: "editdist", SeqA: "kitten", SeqB: "sitting"},
		{Kernel: "editdist", N: 48, Seed: 7},
		{Kernel: "lcs", N: 40, Seed: 3},
		{Kernel: "lcs", SeqA: "ACGT"},
		{Kernel: "needleman", SeqA: "GATTACA", SeqB: "GCATGCU"},
		{Kernel: "swgg", N: 32, Seed: 9},
		{Kernel: "nussinov", SeqA: "GGGAAAUCC"},
		{Kernel: "knapsack", N: 12, Seed: 4},
		{Kernel: "knapsack", N: 6, Capacity: 30, Seed: 5},
		{Kernel: "quicksort"},
		{Kernel: "editdist", N: 1024},
		{Kernel: "editdist", N: 1000000000},
		{Kernel: "nussinov", N: 1 << 62},
	} {
		body, _ := json.Marshal(spec)
		f.Add(body)
	}
	const maxCells = 1 << 12
	mgr := server.NewManager(server.ManagerConfig{Run: fastRun(), MaxCells: maxCells}, nil)
	f.Cleanup(func() { _ = mgr.Shutdown(context.Background()) })
	h := server.NewHandler(mgr)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body))))
		if rec.Code != http.StatusAccepted {
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s answered %d: %s", body, rec.Code, rec.Body)
			}
			return
		}
		var st server.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		j, err := mgr.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done() // the run is bounded by fastRun's RunTimeout
		res, err := j.Result()
		if err != nil {
			t.Fatalf("%s was accepted and failed: %v", body, err)
		}
		if want := reference(t, mgr.Registry(), j.Spec, maxCells); res.Value != want || res.Cells > maxCells {
			t.Fatalf("%s: value %d on %d cells, the sequential reference gives %d", body, res.Value, res.Cells, want)
		}
	})
}

// reference is the value spec's kernel answers when its matrix is the
// sequential one.
func reference(t *testing.T, reg *server.Registry, spec server.JobSpec, maxCells int64) int64 {
	p, finish, err := reg.Build(spec, maxCells)
	if err != nil {
		t.Fatalf("rebuilding an accepted spec: %v", err)
	}
	seq := p.Kernel.(interface{ Sequential() [][]int32 }).Sequential()
	rect := dag.Rect{Rows: p.Size.Rows, Cols: p.Size.Cols}
	b := matrix.NewBlock[int32](rect)
	for i, row := range seq {
		copy(b.Cells[i*rect.Cols:], row)
	}
	store := matrix.NewStore[int32](dag.MatrixGeometry(p.Size, p.Size))
	store.Put(dag.Pos{}, b)
	return finish(&core.Result[int32]{Store: store}).Value
}
