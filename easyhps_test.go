package easyhps

import (
	"strings"
	"testing"
	"time"
)

// The facade must be usable exactly as the README shows.
func TestFacadeQuickstart(t *testing.T) {
	a := RandomDNA(96, 1)
	b := MutateSeq(a, "ACGT", 0.2, 2)
	s := NewSWGG(a, b)
	res, err := Run(s.Problem(), Config{
		Slaves:          2,
		Threads:         3,
		ProcPartition:   Square(24),
		ThreadPartition: Square(6),
		RunTimeout:      2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	score, _, _ := BestLocal(res.Matrix())
	wantScore, _, _ := BestLocal(s.Sequential())
	if score != wantScore {
		t.Fatalf("facade run score %d != sequential %d", score, wantScore)
	}
}

func TestFacadePatternLibrary(t *testing.T) {
	for _, name := range []string{"wavefront", "rowcolumn", "triangular", "dominance", "rowonly", "chain"} {
		if _, ok := LookupPattern(name); !ok {
			t.Errorf("library pattern %q missing from facade", name)
		}
	}
	g := MatrixGeometry(Square(12), Square(3))
	if err := ValidatePattern(PatternWavefront, g); err != nil {
		t.Error(err)
	}
	if err := ValidatePattern(PatternTriangular, g); err != nil {
		t.Error(err)
	}
}

func TestFacadeCustomPattern(t *testing.T) {
	// A pattern violating the topology invariant must be rejected.
	bad := CustomPattern{
		PatternName: "facade-bad",
		DataDepsFunc: func(g Geometry, p Pos, buf []Pos) []Pos {
			if p.Row > 0 {
				buf = append(buf, Pos{Row: p.Row - 1, Col: p.Col})
			}
			return buf
		},
	}
	if err := ValidatePattern(bad, MatrixGeometry(Square(4), Square(2))); err == nil {
		t.Error("invalid custom pattern accepted")
	}
}

// prefixPaths is a per-cell Kernel32: the number of monotone paths to
// (i, j) over west, north and north-west steps, mod 1000003, with each row
// before the first and column before the first reading as one path.
type prefixPaths struct{}

func (prefixPaths) Pattern() Pattern        { return PatternWavefront }
func (prefixPaths) Boundary(i, j int) int32 { return 1 }
func (prefixPaths) Cell(v *View32, i, j int) int32 {
	return (v.Get(i, j-1) + v.Get(i-1, j) + v.Get(i-1, j-1)) % 1000003
}

// A per-cell kernel runs through NewProblem32 and Run, one thread a slave
// and two, cell for cell as the plain loop nest computes it.
func TestFacadeRunsCellKernel(t *testing.T) {
	size := Size{Rows: 29, Cols: 35}
	want := make([][]int32, size.Rows)
	get := func(i, j int) int32 {
		if i < 0 || j < 0 {
			return 1
		}
		return want[i][j]
	}
	for i := range want {
		want[i] = make([]int32, size.Cols)
		for j := range want[i] {
			want[i][j] = (get(i, j-1) + get(i-1, j) + get(i-1, j-1)) % 1000003
		}
	}
	for _, threads := range []int{1, 2} {
		res, err := Run(NewProblem32("paths", size, prefixPaths{}), Config{
			Slaves:          2,
			Threads:         threads,
			ProcPartition:   Square(8),
			ThreadPartition: Square(3),
			RunTimeout:      time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Matrix()
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%d threads: cell (%d, %d) = %d, want %d", threads, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// zeroCells is a per-cell Kernel32 of any pattern that computes zeros.
type zeroCells struct{ pat Pattern }

func (z zeroCells) Pattern() Pattern             { return z.pat }
func (zeroCells) Boundary(i, j int) int32        { return 0 }
func (zeroCells) Cell(v *View32, i, j int) int32 { return 0 }

// A user pattern that breaks the model is refused by Run at once, with the
// error ValidatePattern gives: one whose blocks each precede their east and
// west neighbours, a cycle, well before its 5 s RunTimeout, and one that
// names the block above the grid as a precursor without panicking.
func TestRunRefusesBrokenUserPatterns(t *testing.T) {
	cycle := CustomPattern{PatternName: "east-west", PrecursorsFunc: func(g Geometry, p Pos, buf []Pos) []Pos {
		for _, q := range []Pos{{Row: p.Row, Col: p.Col - 1}, {Row: p.Row, Col: p.Col + 1}} {
			if g.InGrid(q) {
				buf = append(buf, q)
			}
		}
		return buf
	}}
	outside := CustomPattern{PatternName: "north-of-grid", PrecursorsFunc: func(g Geometry, p Pos, buf []Pos) []Pos {
		return append(buf, Pos{Row: -1, Col: p.Col})
	}}
	for _, c := range []struct {
		pat  Pattern
		want string
	}{
		{cycle, "(a cycle)"},
		{outside, "nonexistent precursor (-1,0) of (0,0)"},
	} {
		if err := ValidatePattern(c.pat, MatrixGeometry(Square(8), Square(4))); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ValidatePattern answered %v, want an error that says %q", c.pat.Name(), err, c.want)
		}
		start := time.Now()
		_, err := Run(NewProblem32(c.pat.Name(), Square(8), zeroCells{c.pat}), Config{
			Slaves: 2, Threads: 2, ProcPartition: Square(4), RunTimeout: 5 * time.Second,
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run answered %v, want an error that says %q", c.pat.Name(), err, c.want)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: Run took %v to refuse the pattern", c.pat.Name(), took)
		}
	}
}

// plantedOrder is a library pattern with a row order the test plants.
type plantedOrder struct {
	Pattern
	rows func(r Rect, visit func(i, j0, j1 int))
}

func (p plantedOrder) RowOrder(r Rect, visit func(i, j0, j1 int)) { p.rows(r, visit) }

// A row order that would have the thread level slice a block backwards, past
// its edge, over a hole, or compute a cell twice or never is refused before
// the pattern runs.
func TestValidatePatternRefusesPlantedRowOrders(t *testing.T) {
	g := MatrixGeometry(Square(12), Square(4))
	rowMajor := func(seg func(i, j0, j1 int, visit func(i, j0, j1 int))) func(r Rect, visit func(i, j0, j1 int)) {
		return func(r Rect, visit func(i, j0, j1 int)) {
			for i := r.Row0; i < r.Row0+r.Rows; i++ {
				seg(i, r.Col0, r.Col0+r.Cols, visit)
			}
		}
	}
	whole := rowMajor(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j1) })
	for _, c := range []struct {
		defect, want string
		pat          plantedOrder
	}{
		{"reversed", "empty or reversed", plantedOrder{PatternWavefront, rowMajor(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j1); visit(i, j1, j0) })}},
		{"empty", "empty or reversed", plantedOrder{PatternWavefront, rowMajor(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j0); visit(i, j0, j1) })}},
		{"out-of-block", "leaves the block", plantedOrder{PatternWavefront, rowMajor(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j1+1) })}},
		{"hole", "covers the hole", plantedOrder{PatternTriangular, whole}},
		{"repeat", "repeats the cell", plantedOrder{PatternWavefront, rowMajor(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0, j0+1); visit(i, j0, j1) })}},
		{"skip", "skips the cell", plantedOrder{PatternWavefront, rowMajor(func(i, j0, j1 int, visit func(i, j0, j1 int)) { visit(i, j0+1, j1) })}},
	} {
		if err := ValidatePattern(c.pat, g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("the %s row order: ValidatePattern answered %v, want an error that says %q", c.defect, err, c.want)
		}
	}
	for _, pat := range []Pattern{PatternWavefront, PatternTriangular} {
		if err := ValidatePattern(plantedOrder{pat, pat.RowOrder}, g); err != nil {
			t.Errorf("%s's own row order was refused: %v", pat.Name(), err)
		}
	}
	if err := ValidatePattern(plantedOrder{PatternWavefront, whole}, g); err != nil {
		t.Errorf("whole rows top down were refused on the wavefront: %v", err)
	}
}

func TestFacadeTraceAndPolicy(t *testing.T) {
	e := NewEditDistance(RandomDNA(48, 3), RandomDNA(48, 4))
	rec := NewTrace()
	res, err := Run(e.Problem(), Config{
		Slaves:          2,
		Threads:         2,
		ProcPartition:   Square(12),
		ThreadPartition: Square(4),
		Policy:          PolicyBlockCyclic,
		Trace:           rec,
		RunTimeout:      time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks != 16 {
		t.Fatalf("tasks = %d, want 16", res.Stats.Tasks)
	}
	if s := rec.Summarize(); s.Tasks == 0 {
		t.Fatal("trace recorded nothing")
	}
}

func TestFacadeNussinovStructure(t *testing.T) {
	nu := NewNussinov(RandomRNA(64, 5))
	res, err := Run(nu.Problem(), Config{
		Slaves: 2, Threads: 2,
		ProcPartition: Square(16), ThreadPartition: Square(4),
		RunTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix()
	st := nu.Structure(m)
	if PairCount(st) != int(m[0][63]) {
		t.Fatalf("structure pairs %d != matrix %d", PairCount(st), m[0][63])
	}
}

func TestFacadeAffinityAndDelta(t *testing.T) {
	a := RandomDNA(48, 6)
	b := MutateSeq(a, "ACGT", 0.2, 7)
	s := NewSWGG(a, b)
	res, err := Run(s.Problem(), Config{
		Slaves: 2, Threads: 2,
		ProcPartition:   Square(12),
		ThreadPartition: Square(4),
		Policy:          PolicyAffinity,
		RunTimeout:      time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksSkipped == 0 {
		t.Fatalf("affinity policy did not engage delta shipping: %+v", res.Stats)
	}
	wantScore, _, _ := BestLocal(s.Sequential())
	gotScore, _, _ := BestLocal(res.Matrix())
	if gotScore != wantScore {
		t.Fatalf("score %d != %d", gotScore, wantScore)
	}
}

func TestFacadeGeometryHelpers(t *testing.T) {
	g := MatrixGeometry(Square(10), Square(4))
	if g.Grid != (Size{Rows: 3, Cols: 3}) {
		t.Fatalf("grid = %v", g.Grid)
	}
	g2 := NewGeometry(Rect{Row0: 2, Col0: 2, Rows: 6, Cols: 6}, Square(3))
	if g2.Grid != (Size{Rows: 2, Cols: 2}) {
		t.Fatalf("region grid = %v", g2.Grid)
	}
}

func TestFacadeGantt(t *testing.T) {
	rec := NewTrace()
	e := NewEditDistance(RandomDNA(24, 8), RandomDNA(24, 9))
	if _, err := Run(e.Problem(), Config{
		Slaves: 2, Threads: 1,
		ProcPartition: Square(8), ThreadPartition: Square(4),
		Trace: rec, RunTimeout: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rec.Gantt(&sb, 40)
	if !strings.Contains(sb.String(), "gantt:") {
		t.Fatalf("gantt output: %q", sb.String())
	}
}
