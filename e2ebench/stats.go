package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailCandidates are the tail percentiles considered, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted, or 0 when it is
// empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// beyond reports how many of n samples lie above the nearest-rank percentile p.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - rank(p, n)
}

// tailPercentile selects the highest candidate percentile with at least
// minBeyond samples above it; ok is false when even the lowest candidate has
// fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(c, n) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// summary is a timing distribution reported the way the benchmark reports
// every timing: its median and its highest percentile with at least
// minBeyond samples beyond it, with the sample count.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	TailP  float64 `json:"tail_percentile"` // 0 when no candidate qualifies
	Tail   float64 `json:"tail"`
	Mean   float64 `json:"mean"`
	P90Ok  bool    `json:"p90_has_10_beyond"`
	P99Ok  bool    `json:"p99_has_10_beyond"`
	sorted []float64
}

// summarize sorts a copy of xs and summarizes it.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), sorted: s}
	if len(s) == 0 {
		return out
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	out.Mean = sum / float64(len(s))
	out.P50 = percentile(s, 50)
	out.P90 = percentile(s, 90)
	out.P99 = percentile(s, 99)
	out.P90Ok = beyond(90, len(s)) >= minBeyond
	out.P99Ok = beyond(99, len(s)) >= minBeyond
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP = p
		out.Tail = percentile(s, p)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failed reports whether an HTTP outcome counts against fail_ratio: any
// status outside 2xx, including 429 sheds and 5xx, and transport errors
// (status 0).
func failed(status int) bool { return status < 200 || status > 299 }

// failRatio is failed requests over attempted requests.
func failRatio(statuses []int) float64 {
	if len(statuses) == 0 {
		return 0
	}
	n := 0
	for _, st := range statuses {
		if failed(st) {
			n++
		}
	}
	return float64(n) / float64(len(statuses))
}

// computed reports whether a response's cost counters describe work done for
// it: cache hits and coalesced waiters replay the counters of the request
// that computed the answer.
func computed(cached string) bool { return cached == "" || cached == "miss" }

// modelNetMs is the mean modeled network time R·(L+S/B) in milliseconds over
// computed responses only.
func modelNetMs(cached []string, netUs []int64) float64 {
	var sum float64
	n := 0
	for i, c := range cached {
		if computed(c) {
			sum += float64(netUs[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1000
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subWindows is how many equal parts of the timed window the windowed
// metrics take their median over, so a host stall confined to one or two
// parts does not set a run's value.
const subWindows = 5

// part returns which of parts equal sub-windows of window the offset d falls
// in, or -1 outside the window.
func part(d, window time.Duration, parts int) int {
	if d < 0 || d >= window {
		return -1
	}
	return min(int(d/(window/time.Duration(parts))), parts-1)
}

// subPercentile groups values by the sub-window their offset falls in, takes
// percentile p within each non-empty sub-window and returns the median of
// those.
func subPercentile(at []time.Duration, vals []float64, window time.Duration, parts int, p float64) float64 {
	groups := make([][]float64, parts)
	for i, d := range at {
		if k := part(d, window, parts); k >= 0 {
			groups[k] = append(groups[k], vals[i])
		}
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			sort.Float64s(g)
			per = append(per, percentile(g, p))
		}
	}
	sort.Float64s(per)
	return percentile(per, 50)
}

// subRatio is the median over sub-windows of num[k]/den[k], skipping
// sub-windows with no denominator.
func subRatio(num, den []float64) float64 {
	var per []float64
	for k := range num {
		if den[k] > 0 {
			per = append(per, num[k]/den[k])
		}
	}
	sort.Float64s(per)
	return percentile(per, 50)
}

// medianRate splits a window into parts equal sub-windows and returns the
// median of their completion rates (per second), so a stall confined to one
// sub-window does not set the run's throughput. doneAt are completion
// offsets from the window start.
func medianRate(doneAt []time.Duration, window time.Duration, parts int) float64 {
	counts := make([]float64, parts)
	sub := window / time.Duration(parts)
	for _, d := range doneAt {
		if k := part(d, window, parts); k >= 0 {
			counts[k]++
		}
	}
	rates := make([]float64, parts)
	for i, c := range counts {
		rates[i] = c / sub.Seconds()
	}
	sort.Float64s(rates)
	return percentile(rates, 50)
}
