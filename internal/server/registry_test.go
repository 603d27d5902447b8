package server_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
	"repro/internal/fleet"
	"repro/internal/matrix"
	"repro/internal/server"
)

// Every finisher reads its scalar off the blocks — a cell or one walk over
// them — and answers what the kernel's own accessor reads off the dense
// sequential matrix, over a partition with clipped edge blocks and, for the
// triangle, absent ones.
func TestFinishersMatchDenseAnswer(t *testing.T) {
	reg := server.NewRegistry()
	for _, spec := range []server.JobSpec{
		{Kernel: "editdist", N: 23, Seed: 1},
		{Kernel: "editdist", SeqA: "kitten", SeqB: "sitting"},
		{Kernel: "lcs", N: 23, Seed: 2},
		{Kernel: "needleman", N: 23, Seed: 3},
		{Kernel: "swgg", N: 23, Seed: 4},
		{Kernel: "nussinov", N: 23, Seed: 5},
		{Kernel: "knapsack", N: 11, Seed: 6},
	} {
		p, finish, err := reg.Build(spec, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		m := p.Kernel.(interface{ Sequential() [][]int32 }).Sequential()
		var want int64
		switch k := p.Kernel.(type) {
		case *dp.EditDistance:
			want = int64(k.Distance(m))
		case *dp.LCS:
			want = int64(m[len(k.A)-1][len(k.B)-1])
		case *dp.NeedlemanWunsch:
			want = int64(k.GlobalScore(m))
		case *dp.SWGG:
			score, _, _ := dp.BestLocal(m)
			want = int64(score)
		case *dp.Nussinov:
			want = int64(m[0][len(m)-1])
		case *dp.Knapsack:
			want = int64(k.Best(m))
		default:
			t.Fatalf("%s: no dense answer for %T", spec.Kernel, k)
		}

		geom := dag.MatrixGeometry(p.Size, dag.Square(5))
		store := matrix.NewStore[int32](geom)
		for _, id := range dag.Build(p.Kernel.Pattern(), geom).Existing() {
			r := geom.Rect(geom.PosOf(id))
			b := matrix.NewBlock[int32](r)
			for i := 0; i < r.Rows; i++ {
				copy(b.Cells[i*r.Cols:(i+1)*r.Cols], m[r.Row0+i][r.Col0:])
			}
			store.Put(geom.PosOf(id), b)
		}
		res := finish(&core.Result[int32]{Store: store})
		if res.Value != want || res.Cells != int64(p.Size.Rows)*int64(p.Size.Cols) {
			t.Fatalf("%+v: value %d on %d cells, the dense matrix answers %d on %d", spec, res.Value, res.Cells, want, p.Size.Rows*p.Size.Cols)
		}
	}
}

// TestJobSpecDigest pins the one job digest. It names a job's entries in
// every cache directory the service, easyhps-run and easyhps-launch fill,
// so a reformat would turn them all cold without a failing test elsewhere.
// It covers the kernel and every input field, quoted so that adjacent
// sequences cannot alias, and not the scheduling knobs, which change how a
// job runs and never what it answers.
func TestJobSpecDigest(t *testing.T) {
	s := server.JobSpec{Kernel: "editdist", N: 64, Seed: 51}
	if got := s.Digest(); got != "bec0db8259ee34c7" {
		t.Fatalf("digest = %s, want the pinned easyhps-job:1 value", got)
	}
	for name, other := range map[string]server.JobSpec{
		"kernel":   {Kernel: "lcs", N: 64, Seed: 51},
		"n":        {Kernel: "editdist", N: 65, Seed: 51},
		"seed":     {Kernel: "editdist", N: 64, Seed: 52},
		"seq_a":    {Kernel: "editdist", N: 64, Seed: 51, SeqA: "a"},
		"seq_b":    {Kernel: "editdist", N: 64, Seed: 51, SeqB: "a"},
		"capacity": {Kernel: "editdist", N: 64, Seed: 51, Capacity: 1},
	} {
		if other.Digest() == s.Digest() {
			t.Errorf("digest insensitive to %s", name)
		}
	}
	if a, b := (server.JobSpec{Kernel: "editdist", SeqA: "ab", SeqB: "c"}), (server.JobSpec{Kernel: "editdist", SeqA: "a", SeqB: "bc"}); a.Digest() == b.Digest() {
		t.Error("seq_a/seq_b boundary aliases: \"ab\",\"c\" and \"a\",\"bc\" share a digest")
	}
	knobs := s
	knobs.Weight, knobs.Priority = 3, 2
	if knobs.Digest() != s.Digest() {
		t.Error("digest depends on weight or priority")
	}
}

// TestJobSpecRequest: the one fleet submission of a spec, as the service
// and easyhps-launch submit it. Its attach frame's spec is what a
// fleet worker's RegistryBuilder turns back into the same problem.
func TestJobSpecRequest(t *testing.T) {
	s := server.JobSpec{Kernel: "swgg", N: 40, Seed: 3, Weight: 2, Priority: 1}
	req := s.Request(dag.Square(8), dag.Square(4))
	if req.Name != "swgg" || req.CacheKey != s.Digest() || req.Weight != 2 || req.Priority != 1 ||
		req.Proc != dag.Square(8) || req.Thread != dag.Square(4) {
		t.Fatalf("request = %+v", req)
	}
	want, _, err := server.NewRegistry().Build(s, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.RegistryBuilder(server.NewRegistry())(fleet.JobMeta{Name: req.Name, Spec: req.Spec, Rows: want.Size.Rows, Cols: want.Size.Cols})
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want.Size || got.Name != want.Name {
		t.Fatalf("the worker built %s %v from the attach frame, the master %s %v", got.Name, got.Size, want.Name, want.Size)
	}
}
