package main

import (
	"math"
	"sort"
	"time"
)

// summary is a sample reduced to what the reports print: the median, the
// quartiles and the count behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile is the q-quantile of sorted xs by the exclusive method — the
// default of Python's statistics.quantiles, which the acceptance driver
// uses for its quartiles — so the spreads -selfcheck prints are the
// spreads the driver computes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := math.Min(math.Max(q*float64(n+1)-1, 0), float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func minOf(xs []float64) float64 {
	lo := xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
	}
	return lo
}

func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// in expresses durations as multiples of unit.
func in(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is num/den, or 0 when den is 0: the convention for a per-layer
// metric whose layer the workload never entered.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perOp runs fn repeatedly for at least minTime and returns the mean time
// of one call. Layer micro-measurements use it; they are per-layer
// metrics, which carry no regression bound.
func perOp(minTime time.Duration, fn func()) time.Duration {
	fn() // warm caches and lazy set-up outside the timed loop
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if el := time.Since(start); el >= minTime {
			return el / time.Duration(n)
		}
	}
}
