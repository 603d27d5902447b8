package tune

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/testseed"
)

func TestBatchGrowsWhileAmortizing(t *testing.T) {
	c := New(DefaultLimits(), 1, 0.95, 2, 8)
	s := Sample{}
	c.Tick(s) // baseline
	for i := 0; i < 100; i++ {
		s.Dispatches += 100
		s.TaskBytes += 100 * 64 // flat bytes-per-vertex
		d := c.Tick(s)
		if d.BatchCap < 1 || d.BatchCap > DefaultLimits().MaxBatch {
			t.Fatalf("tick %d: cap %d out of bounds", i, d.BatchCap)
		}
	}
	if got := c.BatchCap(); got != DefaultLimits().MaxBatch {
		t.Fatalf("stationary amortizing workload should climb to the cap, got %d", got)
	}
}

func TestBatchShrinksOnHunger(t *testing.T) {
	c := New(DefaultLimits(), 32, 0.95, 2, 8)
	s := Sample{Dispatches: 1000, TaskBytes: 64000}
	c.Tick(s)
	s.Dispatches += 100
	s.TaskBytes += 6400
	s.Hungers += 3
	d := c.Tick(s)
	if !d.Changed || d.BatchCap != 16 {
		t.Fatalf("hunger should halve the cap 32->16, got %+v", d)
	}
	s.Steals += 2
	d = c.Tick(s)
	if d.BatchCap != 8 {
		t.Fatalf("steals should halve the cap 16->8, got %+v", d)
	}
}

func TestBatchHoldsWhenAmortizationDegrades(t *testing.T) {
	c := New(DefaultLimits(), 4, 0.95, 2, 8)
	s := Sample{}
	c.Tick(s)
	s.Dispatches, s.TaskBytes = 100, 6400 // 64 B/vertex baseline
	c.Tick(s)
	s.Dispatches += 100
	s.TaskBytes += 100 * 80 // 80 B/vertex: worse than 64 * 1.05
	d := c.Tick(s)
	if d.BatchCap != 5 {
		t.Fatalf("the degrading interval is only detected after the fact, want 5, got %d", d.BatchCap)
	}
	s.Dispatches += 100
	s.TaskBytes += 100 * 90
	d = c.Tick(s)
	if d.BatchCap != 5 {
		t.Fatalf("cap should park when bytes-per-vertex keeps degrading, got %d", d.BatchCap)
	}
}

func TestSpecRelaxesOnUniformProfile(t *testing.T) {
	lim := DefaultLimits()
	c := New(lim, 1, 0.95, 2, 8)
	s := Sample{ProfileP50: 10 * time.Millisecond, ProfileP95: 11 * time.Millisecond, ProfileSamples: 64}
	c.Tick(s)
	var q, m float64
	for i := 0; i < 200; i++ {
		d := c.Tick(s)
		q, m = d.SpecQuantile, d.SpecMultiplier
	}
	if q != lim.MaxQuantile || m != lim.MaxMultiplier {
		t.Fatalf("uniform profile should converge to the conservative bounds, got q=%v m=%v", q, m)
	}
}

func TestSpecTightensOnHeavyTail(t *testing.T) {
	lim := DefaultLimits()
	c := New(lim, 1, 0.95, 2, 8)
	s := Sample{ProfileP50: 10 * time.Millisecond, ProfileP95: 100 * time.Millisecond, ProfileSamples: 64}
	c.Tick(s)
	var q, m float64
	for i := 0; i < 200; i++ {
		d := c.Tick(s)
		q, m = d.SpecQuantile, d.SpecMultiplier
	}
	if q != lim.MinQuantile || m != lim.MinMultiplier {
		t.Fatalf("heavy tail should converge to the aggressive bounds, got q=%v m=%v", q, m)
	}
}

func TestSpecRelaxesOnWastedBackups(t *testing.T) {
	lim := DefaultLimits()
	c := New(lim, 1, 0.95, 2, 8)
	// Dispersion 2.0 sits in the hold band — the outcome signal has to do
	// the moving: a mild straggler trips the thresholds but always loses
	// the race, so every interval adds wasted backups and no wins.
	s := Sample{ProfileP50: 10 * time.Millisecond, ProfileP95: 20 * time.Millisecond, ProfileSamples: 64}
	c.Tick(s)
	var q, m float64
	for i := 0; i < 200; i++ {
		s.SpecWasted += 2
		d := c.Tick(s)
		q, m = d.SpecQuantile, d.SpecMultiplier
	}
	if q != lim.MaxQuantile || m != lim.MaxMultiplier {
		t.Fatalf("losing backups should relax to the conservative bounds, got q=%v m=%v", q, m)
	}
	// Winning backups outnumbering wasted ones hand control back to the
	// dispersion rule, which holds at 2.0.
	s.SpecWon += 5
	s.SpecWasted += 1
	if d := c.Tick(s); d.SpecQuantile != q || d.SpecMultiplier != m {
		t.Fatalf("winning interval must not relax further: %+v", d)
	}
}

func TestSpecHoldsOnColdProfile(t *testing.T) {
	c := New(DefaultLimits(), 1, 0.95, 2, 8)
	s := Sample{ProfileP50: time.Millisecond, ProfileP95: 50 * time.Millisecond, ProfileSamples: 3}
	c.Tick(s)
	d := c.Tick(s)
	if d.Changed {
		t.Fatalf("cold profile must not move the thresholds: %+v", d)
	}
}

func TestSnapshotAndAdjustments(t *testing.T) {
	c := New(DefaultLimits(), 2, 0.95, 2, 8)
	s := Sample{}
	c.Tick(s)
	s.Dispatches, s.TaskBytes = 10, 640
	c.Tick(s)
	snap := c.Snapshot()
	if snap.BatchCap != 3 || snap.Adjustments != 1 {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	if snap.SpecQuantile != 0.95 || snap.SpecMultiplier != 2 {
		t.Fatalf("untouched spec params should pass through: %+v", snap)
	}
}

// MaxBatchStep is the largest move the batch cap may make in one tick
// starting from old: the additive step up is 1, the multiplicative step
// down halves (rounding down, so an odd cap moves ceil(old/2)), making
// the bound max(1, old-old/2).
func MaxBatchStep(old int) int {
	if step := old - old/2; step > 1 {
		return step
	}
	return 1
}

// TestControllerProperties drives the controller with testseed-seeded
// random counter sequences and holds it to the declared contract:
// recommendations stay inside Limits, per-tick movement respects the
// damping (MaxBatchStep for the cap, Gain times the bound range for the
// thresholds), and once the workload turns stationary the
// recommendations reach a fixed point.
func TestControllerProperties(t *testing.T) {
	seed := testseed.Seed(t, 42)
	rng := rand.New(rand.NewSource(seed))
	lim := DefaultLimits()
	qRange := lim.MaxQuantile - lim.MinQuantile
	mRange := lim.MaxMultiplier - lim.MinMultiplier

	for trial := 0; trial < 50; trial++ {
		c := New(lim, 1+rng.Intn(64), 0.9+rng.Float64()*0.09, 1.5+rng.Float64()*2, 8)
		var s Sample
		prevQ, prevM := c.SpecParams()
		prevB := c.BatchCap()
		c.Tick(s)

		step := func(random bool) {
			if random {
				s.Dispatches += int64(rng.Intn(200))
				s.TaskBytes += int64(rng.Intn(20000))
				s.Hungers += int64(rng.Intn(3))
				s.Steals += int64(rng.Intn(3))
				s.SpecWon += int64(rng.Intn(3))
				s.SpecWasted += int64(rng.Intn(3))
				s.ProfileP50 = time.Duration(1+rng.Intn(20)) * time.Millisecond
				s.ProfileP95 = s.ProfileP50 * time.Duration(1+rng.Intn(20))
				s.ProfileSamples = rng.Intn(64)
			} else {
				s.Dispatches += 100
				s.TaskBytes += 6400
				s.ProfileP50 = 10 * time.Millisecond
				s.ProfileP95 = 12 * time.Millisecond
				s.ProfileSamples = 64
			}
			d := c.Tick(s)
			if d.BatchCap < lim.MinBatch || d.BatchCap > lim.MaxBatch {
				t.Fatalf("trial %d: cap %d outside [%d, %d]", trial, d.BatchCap, lim.MinBatch, lim.MaxBatch)
			}
			if d.SpecQuantile < lim.MinQuantile || d.SpecQuantile > lim.MaxQuantile ||
				d.SpecMultiplier < lim.MinMultiplier || d.SpecMultiplier > lim.MaxMultiplier {
				t.Fatalf("trial %d: spec params out of bounds: %+v", trial, d)
			}
			if diff := abs(d.BatchCap - prevB); diff > MaxBatchStep(prevB) {
				t.Fatalf("trial %d: cap moved %d -> %d, more than MaxBatchStep=%d",
					trial, prevB, d.BatchCap, MaxBatchStep(prevB))
			}
			if dq := math.Abs(d.SpecQuantile - prevQ); dq > lim.Gain*qRange+1e-9 {
				t.Fatalf("trial %d: quantile moved %.4f -> %.4f, beyond damping %.4f",
					trial, prevQ, d.SpecQuantile, lim.Gain*qRange)
			}
			if dm := math.Abs(d.SpecMultiplier - prevM); dm > lim.Gain*mRange+1e-9 {
				t.Fatalf("trial %d: multiplier moved %.4f -> %.4f, beyond damping %.4f",
					trial, prevM, d.SpecMultiplier, lim.Gain*mRange)
			}
			prevB, prevQ, prevM = d.BatchCap, d.SpecQuantile, d.SpecMultiplier
		}

		for i := 0; i < 100; i++ {
			step(true)
		}
		// Stationary phase: after enough identical-delta ticks the
		// recommendations must stop moving entirely.
		for i := 0; i < 300; i++ {
			step(false)
		}
		before := c.Snapshot()
		for i := 0; i < 10; i++ {
			step(false)
		}
		after := c.Snapshot()
		if before.BatchCap != after.BatchCap || before.SpecQuantile != after.SpecQuantile ||
			before.SpecMultiplier != after.SpecMultiplier {
			t.Fatalf("trial %d: no fixed point on a stationary workload: %+v vs %+v", trial, before, after)
		}
	}
}

func TestLimitsDefaulting(t *testing.T) {
	l := Limits{}.withDefaults()
	if l != DefaultLimits() {
		t.Fatalf("zero Limits should default fully, got %+v", l)
	}
	l = Limits{MinBatch: 4, MaxBatch: 2}.withDefaults()
	if l.MaxBatch < l.MinBatch {
		t.Fatalf("inverted batch bounds not repaired: %+v", l)
	}
	c := New(Limits{MinBatch: 2, MaxBatch: 8}, 100, 2, 99, 8)
	if c.BatchCap() != 8 {
		t.Fatalf("initial cap not clamped: %d", c.BatchCap())
	}
	q, m := c.SpecParams()
	if q > 1 || m > DefaultLimits().MaxMultiplier {
		t.Fatalf("initial spec params not clamped: q=%v m=%v", q, m)
	}
}

func TestAdvisePartition(t *testing.T) {
	// 4 workers, flat cost: an 8x8 grid (2x workers per wavefront), so
	// 8-cell blocks on a 64x64 problem.
	g := AdvisePartition(64, 64, 4, nil)
	if g.Rows != 8 || g.Cols != 8 {
		t.Fatalf("flat 64x64/4 workers: want 8x8 blocks, got %v", g)
	}
	// A skewed cost model doubles the grid (halves the block) for load
	// balance.
	g = AdvisePartition(64, 64, 4, skewCost{})
	if g.Rows != 4 || g.Cols != 4 {
		t.Fatalf("skewed 64x64/4 workers: want 4x4 blocks, got %v", g)
	}
	// The grid never exceeds the problem: blocks floor at one cell.
	g = AdvisePartition(3, 200, 16, nil)
	if g.Rows != 1 || g.Cols != 7 {
		t.Fatalf("narrow problem: want 1x7 blocks, got %v", g)
	}
	// Degenerate inputs.
	if g = AdvisePartition(0, 0, 4, nil); g.Rows != 1 || g.Cols != 1 {
		t.Fatalf("degenerate problem: want 1x1, got %v", g)
	}
	if g = AdvisePartition(64, 64, 0, nil); g.Rows != 32 || g.Cols != 32 {
		t.Fatalf("zero workers should behave as one: got %v", g)
	}
	// Determinism: the simulator replays depend on it.
	for i := 0; i < 10; i++ {
		if again := AdvisePartition(64, 64, 4, skewCost{}); again != (dag.Size{Rows: 4, Cols: 4}) {
			t.Fatalf("advice not deterministic: %v", again)
		}
	}
}

type skewCost struct{}

func (skewCost) CellCost(i, j int) float64 {
	if i > 32 {
		return 100
	}
	return 1
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
