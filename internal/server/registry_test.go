package server_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dp"
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
