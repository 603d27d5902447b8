package dp

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dag"
)

// A slowed kernel answers what the kernel does, through its own Row or
// cell by cell through core.Cells, and each row segment waits perCell a
// cell.
func TestSlowAnswersAndWaits(t *testing.T) {
	a := RandomDNA(24, 3)
	e := NewEditDistance(a, MutateSeq(a, DNAAlphabet, 0.2, 4))
	want := e.Sequential()
	for _, c := range []struct {
		name string
		hide bool
	}{{"row kernel", false}, {"cell kernel", true}} {
		p := e.Problem()
		if c.hide {
			p.Kernel = byCells(p.Kernel)
		}
		const perCell = 50 * time.Microsecond
		start := time.Now()
		got := fillBlocked(Slow(p, perCell).Kernel, e.Size(), dag.Square(8), dag.Square(8)).Assemble()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: slowed kernel's matrix differs from the sequential one", c.name)
		}
		if took := time.Since(start); took < 24*24*perCell {
			t.Errorf("%s: 576 cells took %v, under the %v they wait", c.name, took, 24*24*perCell)
		}
	}
}
