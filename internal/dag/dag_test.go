package dag

import (
	"testing"
	"testing/quick"
)

func TestGeometryGrid(t *testing.T) {
	cases := []struct {
		region Rect
		block  Size
		want   Size
	}{
		{Rect{0, 0, 10, 10}, Size{5, 5}, Size{2, 2}},
		{Rect{0, 0, 10, 10}, Size{3, 3}, Size{4, 4}},
		{Rect{0, 0, 10, 10}, Size{10, 10}, Size{1, 1}},
		{Rect{0, 0, 10, 10}, Size{20, 20}, Size{1, 1}},
		{Rect{0, 0, 1, 7}, Size{1, 2}, Size{1, 4}},
		{Rect{5, 5, 9, 4}, Size{2, 3}, Size{5, 2}},
	}
	for _, c := range cases {
		g := NewGeometry(c.region, c.block)
		if g.Grid != c.want {
			t.Errorf("NewGeometry(%v, %v).Grid = %v, want %v", c.region, c.block, g.Grid, c.want)
		}
	}
}

func TestGeometryRectClipping(t *testing.T) {
	g := NewGeometry(Rect{0, 0, 10, 10}, Size{4, 4})
	// Last block in each dimension must be clipped to 2 cells.
	r := g.Rect(Pos{2, 2})
	if r.Rows != 2 || r.Cols != 2 {
		t.Errorf("edge block rect = %v, want 2x2", r)
	}
	r = g.Rect(Pos{0, 0})
	if r.Rows != 4 || r.Cols != 4 {
		t.Errorf("interior block rect = %v, want 4x4", r)
	}
}

func TestGeometryRectOffsetRegion(t *testing.T) {
	g := NewGeometry(Rect{100, 200, 10, 10}, Size{4, 4})
	r := g.Rect(Pos{1, 1})
	if r.Row0 != 104 || r.Col0 != 204 {
		t.Errorf("offset block rect = %v, want origin (104,204)", r)
	}
}

// Property: every cell of the region belongs to exactly one block, and
// BlockOf agrees with Rect.
func TestGeometryPartitionProperty(t *testing.T) {
	f := func(rows, cols, br, bc uint8) bool {
		region := Rect{0, 0, int(rows%40) + 1, int(cols%40) + 1}
		block := Size{int(br%8) + 1, int(bc%8) + 1}
		g := NewGeometry(region, block)
		count := 0
		for r := 0; r < g.Grid.Rows; r++ {
			for c := 0; c < g.Grid.Cols; c++ {
				rect := g.Rect(Pos{r, c})
				if rect.Empty() {
					return false
				}
				count += rect.Cells()
				for i := rect.Row0; i < rect.Row0+rect.Rows; i++ {
					for j := rect.Col0; j < rect.Col0+rect.Cols; j++ {
						if g.BlockOf(i, j) != (Pos{r, c}) {
							return false
						}
					}
				}
			}
		}
		return count == region.Cells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIDRoundTrip(t *testing.T) {
	g := NewGeometry(Rect{0, 0, 30, 17}, Size{4, 3})
	for r := 0; r < g.Grid.Rows; r++ {
		for c := 0; c < g.Grid.Cols; c++ {
			p := Pos{r, c}
			if got := g.PosOf(g.ID(p)); got != p {
				t.Fatalf("PosOf(ID(%v)) = %v", p, got)
			}
		}
	}
}

// IsBlock is true of a block's whole region, clipped at the edge, and of
// nothing else: a part of one, a rect straddling two or one outside the grid.
func TestGeometryIsBlock(t *testing.T) {
	g := NewGeometry(Rect{100, 200, 10, 10}, Size{4, 4})
	for _, r := range []Rect{g.Rect(Pos{0, 0}), g.Rect(Pos{1, 2}), g.Rect(Pos{2, 2})} {
		if !g.IsBlock(r) {
			t.Errorf("IsBlock(%v) = false for a block's region", r)
		}
	}
	for _, r := range []Rect{{100, 203, 4, 1}, {103, 200, 1, 4}, {102, 202, 4, 4}, {96, 200, 4, 4}, {110, 200, 0, 4}} {
		if g.IsBlock(r) {
			t.Errorf("IsBlock(%v) = true", r)
		}
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{2, 3, 4, 5}
	if !r.Contains(2, 3) || !r.Contains(5, 7) {
		t.Error("corner cells should be contained")
	}
	if r.Contains(6, 3) || r.Contains(2, 8) || r.Contains(1, 3) || r.Contains(2, 2) {
		t.Error("outside cells should not be contained")
	}
}

func TestNewGeometryPanics(t *testing.T) {
	mustPanic(t, func() { NewGeometry(Rect{0, 0, 0, 5}, Size{1, 1}) })
	mustPanic(t, func() { NewGeometry(Rect{0, 0, 5, 5}, Size{0, 1}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
