package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank above a reported percentile for
// it to count as measured rather than read off the last few samples.
const minBeyond = 10

// failedLatency is the latency a failed, refused, timed-out or wrong
// request ranks with: above every success, in every percentile.
var failedLatency = math.Inf(1)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sortedCopy returns vals sorted ascending, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile is the nearest-rank q-quantile of sorted samples; NaN when
// there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)]
}

// beyond counts the samples ranked above the q-quantile of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailQuantile is the highest percentile of tailLadder with at least
// minBeyond of n samples above it; ok is false when not even the median
// has that support.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// censor maps a percentile that landed on a failed request (+Inf) to the
// request timeout, the largest latency a client can observe, so the JSON
// result stays a number. Finite values pass through.
func censor(v float64, timeout time.Duration) float64 {
	if math.IsInf(v, 1) {
		return ms(timeout)
	}
	return v
}

// median of vals (NaN when empty).
func median(vals []float64) float64 {
	return quantile(sortedCopy(vals), 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// The quiet-window estimators. A run on a shared host meets stretches of
// CPU steal that stall the whole process, and a figure taken over the
// whole leg then measures the neighbours as much as the program. These
// split a leg into windows, take the figure per window, and report the
// quartile of the windows on the figure's good side: the lower quartile of
// window p99s, the upper quartile of window rates. Up to three quarters of
// the windows can be disturbed without moving the figure, while a program
// that got slower moves every window, and so the figure.
const (
	maxWindows = 10
	// minWindowSamples gives each window's p99 ten samples beyond it.
	minWindowSamples = 1000
)

// quietP99 splits recs by due time into equal windows of [start,
// start+dur), as many as keep minWindowSamples in each (at most
// maxWindows), and returns the lower quartile of the windows' p99
// latencies and the windows' p99s.
func quietP99(recs []*record, start time.Time, dur time.Duration) (p99 float64, perWindow []float64) {
	k := min(maxWindows, max(1, len(recs)/minWindowSamples))
	wins := make([][]float64, k)
	for _, r := range recs {
		i := int(int64(r.due.Sub(start)) * int64(k) / int64(dur))
		if i >= 0 && i < k {
			wins[i] = append(wins[i], r.latency())
		}
	}
	for _, w := range wins {
		if len(w) > 0 {
			perWindow = append(perWindow, quantile(sortedCopy(w), 0.99))
		}
	}
	return quantile(sortedCopy(perWindow), 0.25), perWindow
}

// quietRate splits [start, start+dur) into equal windows of about a
// second and returns the upper quartile, over the windows, of the
// requests that succeeded per second, and each window's rate.
func quietRate(recs []*record, start time.Time, dur time.Duration) (rate float64, perWindow []float64) {
	n := max(1, int(dur/time.Second))
	win := dur / time.Duration(n)
	perWindow = make([]float64, n)
	for _, r := range recs {
		if i := int(r.done.Sub(start) / win); r.good() && i >= 0 && i < n {
			perWindow[i]++
		}
	}
	for i := range perWindow {
		perWindow[i] /= win.Seconds()
	}
	return quantile(sortedCopy(perWindow), 0.75), perWindow
}
