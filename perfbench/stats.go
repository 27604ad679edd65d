package main

import (
	"math"
	"sort"
	"time"

	"ampsched/internal/stats"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// rateWindow is how many consecutive requests make one window of a
// planning workload's rate: two of plan-mix's long-chain requests, one
// exact and one ε, and the Table I requests between them.
const rateWindow = 2 * longEvery

// windowRate is a closed loop's request rate: the median over windows of
// rateWindow consecutive requests of the window's count ÷ the time its
// calls took. Like the streams' windowed frame rate, it keeps a burst of
// stolen CPU time from setting a run's figure. A phase shorter than one
// window is a single window.
func windowRate(elapsed []time.Duration) float64 {
	var rates []float64
	for i := 0; i < len(elapsed); i += rateWindow {
		w := elapsed[i:min(i+rateWindow, len(elapsed))]
		if len(w) < rateWindow && len(rates) > 0 {
			break
		}
		var sum time.Duration
		for _, d := range w {
			sum += d
		}
		rates = append(rates, float64(len(w))/sum.Seconds())
	}
	return stats.Median(rates)
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// closeRel reports whether a and b agree to a relative tolerance.
func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
