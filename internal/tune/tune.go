// Package tune closes the knob loop: an online controller that adjusts
// the dispatch batch cap and the speculation thresholds from the
// counters the runtime already keeps, plus a pre-run partition advisor
// driven by the kernel's cost model. EasyHPS's pitch is that the system
// — not the user — picks the parallel schedule; after batching (PR 4),
// speculation (PR 5) and the fleet (PR 6) grew workload-sensitive
// flags, this package makes the system pick those too.
//
// The controller is deliberately boring: pure arithmetic over counter
// deltas, no goroutines, no clocks, no calls out while holding its
// lock. The host control loop (core fault-tolerance tick, cluster and
// fleet control ticks, the simulator's scheduleTick) samples its
// counters, pre-computes the runtime-profile quantiles, and feeds one
// Sample per tick to Tick. That keeps the whole decision procedure
// deterministic under the simulator's fake clock — every rule in here
// landed with a .scenario file proving the adaptation before any CLI
// grew an -auto flag — and keeps Controller.mu a leaf in the lock
// hierarchy.
//
// Two rules run per tick:
//
//   - Batch cap, AIMD-style. Hungers and steals mean workers sat
//     idle while work existed: the cap halves (multiplicative
//     decrease). Otherwise, while dispatch is making progress and the
//     bytes-per-vertex amortization is not degrading, the cap grows by
//     one (additive increase). On a stationary workload this climbs to
//     the best amortizing cap and stays there.
//
//   - Speculation thresholds, dispersion-driven. The p95/p50 ratio of
//     the runtime profile measures how heavy the straggler tail is.
//     A tight profile (low dispersion) drags SpecQuantile and
//     SpecMultiplier toward their conservative bounds so uniform
//     workloads stop paying for wasted backups; a heavy tail drags
//     them toward their aggressive bounds. Movement is damped: each
//     tick covers at most Limits.Gain of the remaining distance, so
//     consecutive recommendations cannot oscillate by more than
//     Gain·(bound range).
package tune

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dag"
)

// CostModel is an optional Kernel extension (core.Kernel) reporting the
// relative cost of computing one cell. Most DP recurrences are not uniform
// — an SWGG cell scans its whole row and column prefix, O(i+j); a Nussinov
// cell scans its span, O(j-i) — and two readers use the weight: the
// partition advisor (AdvisePartition) and the figures' cost model on the
// simulator (internal/bench), so that block costs vary the way the real
// recurrence's do. Implementations should normalize the mean weight over
// the matrix to about 1 so the total virtual work stays cells x the work
// per cell. Kernels without a CostModel are weighted uniformly.
type CostModel interface {
	// CellCost estimates the relative compute cost of cell (i, j).
	CellCost(i, j int) float64
}

// Limits bounds every recommendation the controller may emit and fixes
// the damping. The property suite holds the controller to exactly these
// numbers: recommendations never leave [Min, Max], the batch cap never
// moves by more than MaxBatchStep in one tick, and the spec thresholds
// never move by more than Gain times their bound range.
type Limits struct {
	MinBatch, MaxBatch           int
	MinQuantile, MaxQuantile     float64
	MinMultiplier, MaxMultiplier float64

	// Gain is the fraction of the remaining distance to a target bound
	// the spec thresholds may cover per tick (0 < Gain <= 1).
	Gain float64

	// LowDispersion and HighDispersion split the p95/p50 ratio into
	// the three regimes: below Low the thresholds relax (speculate
	// less), above High they tighten (speculate more), between them
	// they hold.
	LowDispersion, HighDispersion float64
}

// DefaultLimits are the bounds every -auto entry point uses. The batch
// ceiling matches the largest cap the PR 4 batching benchmarks ever
// rewarded; the quantile/multiplier bounds bracket the PR 5 defaults
// (0.95, 2) from both sides.
func DefaultLimits() Limits {
	return Limits{
		MinBatch: 1, MaxBatch: 64,
		MinQuantile: 0.90, MaxQuantile: 0.99,
		MinMultiplier: 1.5, MaxMultiplier: 4,
		Gain:          0.25,
		LowDispersion: 1.5, HighDispersion: 3,
	}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MinBatch <= 0 {
		l.MinBatch = d.MinBatch
	}
	if l.MaxBatch < l.MinBatch {
		l.MaxBatch = d.MaxBatch
	}
	if l.MaxBatch < l.MinBatch {
		l.MaxBatch = l.MinBatch
	}
	if l.MinQuantile <= 0 {
		l.MinQuantile = d.MinQuantile
	}
	if l.MaxQuantile <= l.MinQuantile {
		l.MaxQuantile = d.MaxQuantile
	}
	if l.MaxQuantile > 1 {
		l.MaxQuantile = 1
	}
	if l.MinMultiplier <= 0 {
		l.MinMultiplier = d.MinMultiplier
	}
	if l.MaxMultiplier <= l.MinMultiplier {
		l.MaxMultiplier = d.MaxMultiplier
	}
	if l.Gain <= 0 || l.Gain > 1 {
		l.Gain = d.Gain
	}
	if l.LowDispersion <= 1 {
		l.LowDispersion = d.LowDispersion
	}
	if l.HighDispersion <= l.LowDispersion {
		l.HighDispersion = d.HighDispersion
	}
	return l
}

// Sample is one control-tick observation. Counter fields are cumulative
// (monotone) totals exactly as the runtime keeps them; the controller
// differences consecutive samples itself. Profile fields are
// pre-computed by the caller — quantile extraction takes the profile's
// own lock, which must not happen under Controller.mu.
type Sample struct {
	Dispatches int64 // vertices handed to workers
	TaskBytes  int64 // payload bytes shipped with them
	Hungers    int64 // hunger passes that moved backlog toward a worker whose draw came back empty
	Steals     int64 // tasks reassigned by work stealing
	SpecWon    int64 // speculative backups that beat their primary
	SpecWasted int64 // speculative backups that lost the race

	ProfileP50, ProfileP95 time.Duration // runtime-profile quantiles
	ProfileSamples         int           // observations behind them
}

// Fold accumulates one job's sample (engine.Job.Sample) into s, the
// observation of a whole pool: counters add, and of the two profile
// pairs the one with the heavier straggler tail (the larger p95/p50)
// stays — pool-wide thresholds must serve the worst case. A caller that
// wants only o's counters (a finished job's, say) zeroes its
// ProfileSamples first.
func (s *Sample) Fold(o Sample) {
	s.Dispatches += o.Dispatches
	s.TaskBytes += o.TaskBytes
	s.Hungers += o.Hungers
	s.Steals += o.Steals
	s.SpecWon += o.SpecWon
	s.SpecWasted += o.SpecWasted
	if o.ProfileSamples == 0 || o.ProfileP50 <= 0 {
		return
	}
	if s.ProfileSamples == 0 ||
		float64(o.ProfileP95)/float64(o.ProfileP50) > float64(s.ProfileP95)/float64(s.ProfileP50) {
		s.ProfileP50, s.ProfileP95, s.ProfileSamples = o.ProfileP50, o.ProfileP95, o.ProfileSamples
	}
}

// Decision reports what one Tick concluded. Changed is true when any
// recommendation moved; hosts use it to gate EvTune trace events so
// runs without adaptation stay byte-identical.
type Decision struct {
	BatchCap       int
	SpecQuantile   float64
	SpecMultiplier float64
	Changed        bool
	Reason         string
}

// Snapshot is the /metrics view of the controller.
type Snapshot struct {
	BatchCap       int
	SpecQuantile   float64
	SpecMultiplier float64
	Adjustments    int64 // total ticks that changed a recommendation
}

// Controller holds the adaptive state. Getters are lock-free so the
// dispatch hot path (sender loops read BatchCap per draw) never
// contends with the control tick.
type Controller struct {
	lim Limits

	batch    atomicInt
	specQ    atomicFloat
	specMult atomicFloat
	adjusts  atomicInt

	mu       sync.Mutex // guards the tick state below; leaf lock, no calls out while held
	last     Sample
	haveLast bool
	lastBPV  float64 // bytes-per-vertex of the previous interval, 0 = unknown
	specMin  int
}

// New creates a controller starting from the given recommendations,
// clamped into lim. specMinSamples gates the spec rule the same way the
// speculation policy itself is gated: below it the profile is cold and
// the thresholds hold still.
func New(lim Limits, batch int, specQuantile, specMultiplier float64, specMinSamples int) *Controller {
	lim = lim.withDefaults()
	c := &Controller{lim: lim, specMin: specMinSamples}
	c.batch.store(int64(clampInt(batch, lim.MinBatch, lim.MaxBatch)))
	c.specQ.store(clampFloat(specQuantile, lim.MinQuantile, lim.MaxQuantile))
	c.specMult.store(clampFloat(specMultiplier, lim.MinMultiplier, lim.MaxMultiplier))
	return c
}

// BatchCap returns the current dispatch batch-cap recommendation.
func (c *Controller) BatchCap() int { return int(c.batch.load()) }

// SpecParams returns the current speculation-threshold recommendation.
func (c *Controller) SpecParams() (quantile, multiplier float64) {
	return c.specQ.load(), c.specMult.load()
}

// BatchCapOr is the dispatch batch cap in effect: the controller's
// recommendation, or — on the nil controller of a run without Auto — the
// configured static value, exactly as given.
func (c *Controller) BatchCapOr(static int) int {
	if c == nil {
		return static
	}
	return c.BatchCap()
}

// SpecParamsOr is the speculation threshold pair in effect, by the rule
// of BatchCapOr.
func (c *Controller) SpecParamsOr(quantile, multiplier float64) (float64, float64) {
	if c == nil {
		return quantile, multiplier
	}
	return c.SpecParams()
}

// Adjustments returns how many ticks changed at least one
// recommendation.
func (c *Controller) Adjustments() int64 { return c.adjusts.load() }

// Snapshot returns the current recommendations for /metrics.
func (c *Controller) Snapshot() Snapshot {
	q, m := c.SpecParams()
	return Snapshot{
		BatchCap:       c.BatchCap(),
		SpecQuantile:   q,
		SpecMultiplier: m,
		Adjustments:    c.Adjustments(),
	}
}

// Tick feeds one observation to the controller and returns the
// (possibly moved) recommendations. The first tick only establishes the
// baseline. Tick is deterministic: the same sample sequence always
// yields the same decision sequence.
func (c *Controller) Tick(s Sample) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()

	d := Decision{
		BatchCap:       int(c.batch.load()),
		SpecQuantile:   c.specQ.load(),
		SpecMultiplier: c.specMult.load(),
	}
	if !c.haveLast {
		c.last, c.haveLast = s, true
		return d
	}
	prev := c.last
	c.last = s

	var reasons []string
	if r := c.tickBatch(prev, s, &d); r != "" {
		reasons = append(reasons, r)
	}
	if r := c.tickSpec(prev, s, &d); r != "" {
		reasons = append(reasons, r)
	}
	if d.Changed {
		c.adjusts.add(1)
		for i, r := range reasons {
			if i > 0 {
				d.Reason += " "
			}
			d.Reason += r
		}
	}
	return d
}

// tickBatch applies the AIMD rule. Called with c.mu held.
func (c *Controller) tickBatch(prev, s Sample, d *Decision) string {
	old := int(c.batch.load())
	dDispatch := s.Dispatches - prev.Dispatches
	dBytes := s.TaskBytes - prev.TaskBytes
	dHunger := (s.Hungers - prev.Hungers) + (s.Steals - prev.Steals)

	next := old
	switch {
	case dHunger > 0:
		// Workers starved while work existed: batches are hoarding.
		next = clampInt(old/2, c.lim.MinBatch, c.lim.MaxBatch)
	case dDispatch > 0:
		bpv := float64(dBytes) / float64(dDispatch)
		// Grow while amortization improves or holds (5% tolerance
		// absorbs jitter); a degrading bytes-per-vertex means larger
		// batches stopped paying and the cap parks where it is.
		if c.lastBPV == 0 || bpv <= c.lastBPV*1.05 {
			next = clampInt(old+1, c.lim.MinBatch, c.lim.MaxBatch)
		}
		c.lastBPV = bpv
	}
	if next == old {
		return ""
	}
	c.batch.store(int64(next))
	d.BatchCap = next
	d.Changed = true
	if next < old {
		return fmt.Sprintf("batch %d->%d (hunger)", old, next)
	}
	return fmt.Sprintf("batch %d->%d (amortizing)", old, next)
}

// tickSpec applies the speculation rule: the direct outcome signal
// first (backups losing races means the thresholds are too eager,
// whatever the dispersion says), the profile's p95/p50 dispersion
// otherwise. Called with c.mu held.
func (c *Controller) tickSpec(prev, s Sample, d *Decision) string {
	if s.ProfileSamples < c.specMin || s.ProfileP50 <= 0 {
		return "" // cold profile: hold, exactly like the speculation gate
	}
	dWon := s.SpecWon - prev.SpecWon
	dWasted := s.SpecWasted - prev.SpecWasted
	dispersion := float64(s.ProfileP95) / float64(s.ProfileP50)
	var targetQ, targetM float64
	var why string
	switch {
	case dWasted > dWon:
		// Backups mostly lost the race this interval: each one paid a
		// dispatch and a worker slot for nothing. Relax.
		targetQ, targetM = c.lim.MaxQuantile, c.lim.MaxMultiplier
		why = fmt.Sprintf("wasted %d/%d backups", dWasted, dWasted+dWon)
	case dispersion < c.lim.LowDispersion:
		// Uniform runtimes: nothing is worth backing up. Relax.
		targetQ, targetM = c.lim.MaxQuantile, c.lim.MaxMultiplier
		why = fmt.Sprintf("uniform, dispersion %.2f", dispersion)
	case dispersion > c.lim.HighDispersion:
		// Heavy tail: stragglers dominate makespan. Tighten.
		targetQ, targetM = c.lim.MinQuantile, c.lim.MinMultiplier
		why = fmt.Sprintf("tail, dispersion %.2f", dispersion)
	default:
		return ""
	}
	oldQ, oldM := c.specQ.load(), c.specMult.load()
	newQ := stepToward(oldQ, targetQ, c.lim.Gain)
	newM := stepToward(oldM, targetM, c.lim.Gain)
	if newQ == oldQ && newM == oldM {
		return ""
	}
	c.specQ.store(newQ)
	c.specMult.store(newM)
	d.SpecQuantile, d.SpecMultiplier = newQ, newM
	d.Changed = true
	return fmt.Sprintf("spec q=%.3f m=%.2f (%s)", newQ, newM, why)
}

// stepToward moves cur a gain-fraction of the way to target, snapping
// when the residual is negligible so stationary inputs converge to a
// fixed point instead of asymptoting forever.
func stepToward(cur, target, gain float64) float64 {
	next := cur + (target-cur)*gain
	if math.Abs(target-next) < 1e-4 {
		next = target
	}
	return next
}

// AdvisePartition picks the processor-level block size (the
// core.Config.ProcPartition / sim JobSpec.Proc unit: cells per block
// per dimension) for an rows-by-cols problem solved by workers workers,
// replacing the static divide-into-8 default when -auto is set. The
// wavefront of a P-by-Q block grid is at most min(P, Q) blocks wide, so
// keeping every worker busy needs a grid on the order of the worker
// count per dimension; the advisor targets twice that for pipelining
// slack and sizes blocks to produce it. A cost model, when the kernel
// provides one, is probed on a coarse lattice: skewed per-cell costs
// double the grid again (halving the block) so expensive regions split
// across workers instead of serializing inside one block. The choice is
// deterministic — same inputs, same block — because scenario replay
// depends on it.
func AdvisePartition(rows, cols, workers int, cost CostModel) dag.Size {
	if rows <= 0 || cols <= 0 {
		return dag.Size{Rows: 1, Cols: 1}
	}
	if workers < 1 {
		workers = 1
	}
	target := 2 * workers
	if cost != nil && costSkewed(rows, cols, cost) {
		target *= 2
	}
	// Grid per dimension is capped by the cell count (blocks hold at
	// least one cell); the block size is whatever yields that grid.
	gr := clampInt(target, 1, rows)
	gc := clampInt(target, 1, cols)
	return dag.Size{Rows: (rows + gr - 1) / gr, Cols: (cols + gc - 1) / gc}
}

// costSkewed probes the cost model on an 8x8 lattice and reports
// whether the most expensive probe is more than 4x the cheapest —
// the point where load balance starts to beat per-block overhead.
func costSkewed(rows, cols int, cost CostModel) bool {
	const probes = 8
	lo, hi := math.Inf(1), math.Inf(-1)
	for a := 0; a < probes; a++ {
		for b := 0; b < probes; b++ {
			i := a * (rows - 1) / (probes - 1)
			j := b * (cols - 1) / (probes - 1)
			v := cost.CellCost(i, j)
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				continue // nonsense probe: ignore rather than distort
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo < hi && hi > 4*lo
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
