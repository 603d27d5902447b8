package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dag"
)

// reversedRows is a wavefront whose row order hands every row over with its
// ends swapped: a segment the thread level would slice backwards.
type reversedRows struct{ dag.Wavefront }

func (reversedRows) Name() string { return "test-reversed-rows" }

func (reversedRows) RowOrder(r dag.Rect, visit func(i, j0, j1 int)) {
	for i := r.Row0; i < r.Row0+r.Rows; i++ {
		visit(i, r.Col0+r.Cols, r.Col0)
	}
}

func init() { dag.Register(reversedRows{}) }

// The report says "model invariants: OK" for a library pattern and the one
// error dag.Validate answers for an invalid one; -dot writes the block DAG
// instead, and -at adds one block's dependencies or refuses a malformed
// position. A name outside the library, "banded" among them, is refused,
// and so is the -width flag that went with it.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		args      []string
		status    int
		want, not []string
	}{
		{
			args: []string{"-pattern", "triangular", "-rows", "12", "-cols", "12", "-block", "3"},
			want: []string{"pattern triangular (2D/1D): matrix 12x12, blocks 3x3, grid 4x4, 10 vertices",
				"model invariants: OK", "  R###\n  .R##\n", "width profile: 4 3 2 1"},
			not: []string{"block (1,2)"},
		},
		{
			args: []string{"-pattern", "triangular", "-rows", "12", "-cols", "12", "-block", "3", "-at", "1,2"},
			want: []string{"model invariants: OK", "block (1,2) rect [3:6,6:9]",
				"precursors: [(1,1) (2,2)]", "data region: (1,1)[3:6,3:6] (2,2)[6:9,6:9]"},
		},
		{
			args: []string{"-pattern", "triangular", "-rows", "12", "-cols", "12", "-block", "3", "-at", "3,0"},
			want: []string{"block (3,0) does not exist"},
		},
		{
			args: []string{"-pattern", "triangular", "-rows", "6", "-cols", "6", "-block", "3", "-dot"},
			want: []string{"digraph \"triangular\"", "b0_0 -> b0_1;", "b1_1 -> b0_1;", "}\n"},
			not:  []string{"model invariants", "b0_0 -> b0_0"},
		},
		{
			args: []string{"-pattern", "test-reversed-rows", "-rows", "8", "-cols", "8", "-block", "4", "-at", "1,1"},
			want: []string{"model invariants: dag: pattern test-reversed-rows block (0,0) [0:4,0:4]: row order segment (0, 4..0) is empty or reversed",
				"block (1,1) rect [4:8,4:8]"},
			not: []string{"OK"},
		},
		{
			args: []string{"-pattern", "test-reversed-rows", "-dot", "-rows", "8", "-cols", "8", "-block", "4"},
			want: []string{"b0_0 -> b0_1;", "b0_1 -> b1_1;"},
		},
		{args: []string{"-at", "1;2"}, status: 1, not: []string{"pattern"}},
		{args: []string{"-pattern", "no-such-pattern"}, status: 1},
		{args: []string{"-pattern", "banded"}, status: 1},
		{args: []string{"-width", "4"}, status: 2},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(c.args, &stdout, &stderr); status != c.status {
			t.Errorf("%v: exit status %d, want %d (stderr %q)", c.args, status, c.status, stderr.String())
		}
		for _, want := range c.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: output lacks %q:\n%s", c.args, want, stdout.String())
			}
		}
		for _, not := range c.not {
			if strings.Contains(stdout.String(), not) {
				t.Errorf("%v: output holds %q:\n%s", c.args, not, stdout.String())
			}
		}
	}
}
