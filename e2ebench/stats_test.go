package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10, ok: false},           // p75 has 2 beyond
		{n: 40, want: 75, ok: true},  // p75: rank 30, 10 beyond
		{n: 99, want: 75, ok: true},  // p90: rank 90, 9 beyond
		{n: 100, want: 90, ok: true}, // p90: rank 90, 10 beyond
		{n: 999, want: 95, ok: true}, // p99: rank 990, 9 beyond
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(got, tc.n) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", tc.n, got, beyond(got, tc.n))
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize(seq(100))
	if s.N != 100 || s.P50 != 50 || s.P90 != 90 || s.P99 != 99 || s.Mean != 50.5 {
		t.Fatalf("summary of 1..100 = %+v", s)
	}
	if s.TailP != 90 || s.Tail != 90 || !s.P90Ok || s.P99Ok {
		t.Fatalf("tail of 100 samples = p%v %v (p90ok %v p99ok %v), want p90", s.TailP, s.Tail, s.P90Ok, s.P99Ok)
	}
	if e := summarize(nil); e.N != 0 || e.P50 != 0 || e.TailP != 0 {
		t.Fatalf("empty summary = %+v", e)
	}
}

func TestFailRatioCountsEveryNon2xx(t *testing.T) {
	statuses := []int{200, 204, 429, 500, 503, 504, 0, 400, 200, 200}
	// 429 shed, 5xx, transport error (0) and 4xx all fail: 6 of 10.
	if got := failRatio(statuses); got != 0.6 {
		t.Fatalf("failRatio = %v, want 0.6", got)
	}
	if failRatio(nil) != 0 {
		t.Fatal("failRatio of nothing must be 0")
	}
}

func TestModelNetExcludesCacheHits(t *testing.T) {
	cached := []string{"miss", "hit", "hit", "coalesced", "miss", ""}
	netUs := []int64{1000, 1000, 1000, 1000, 3000, 5000}
	// Hits and coalesced waiters replay the computing request's counters and
	// are excluded: mean of 1000, 3000, 5000 µs.
	if got := modelNetMs(cached, netUs); math.Abs(got-3) > 1e-12 {
		t.Fatalf("modelNetMs = %v, want 3", got)
	}
	if modelNetMs([]string{"hit"}, []int64{7}) != 0 {
		t.Fatal("only hits must give 0")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "cache", ID: 1, Parent: 0, Start: 5, End: 95},
		{Name: "session", ID: 2, Parent: 1, Start: 10, End: 90},
		{Name: "core", ID: 3, Parent: 2, Start: 20, End: 90},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"request": 10, "cache": 10, "session": 10, "core": 70}
	for n, d := range want {
		if self[n] != d {
			t.Errorf("self[%s] = %v, want %v", n, self[n], d)
		}
	}
}

func TestMedianRateIgnoresOneStalledPart(t *testing.T) {
	var done []time.Duration
	for part := 0; part < 5; part++ {
		n := 10
		if part == 2 {
			n = 1 // a stall in the middle fifth
		}
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(part)*time.Second+time.Duration(i)*50*time.Millisecond)
		}
	}
	done = append(done, 5*time.Second) // completed after the window: ignored
	if got := medianRate(done, 5*time.Second, subWindows); got != 10 {
		t.Fatalf("medianRate = %v, want 10/s", got)
	}
}

func TestSubPercentileIsMedianOverSubWindows(t *testing.T) {
	var at []time.Duration
	var vals []float64
	for part := 0; part < 5; part++ {
		for i := 1; i <= 9; i++ {
			v := float64(i)
			if part == 4 {
				v *= 10 // a slow last fifth
			}
			at = append(at, time.Duration(part)*time.Second+time.Duration(i)*time.Millisecond)
			vals = append(vals, v)
		}
	}
	if got := subPercentile(at, vals, 5*time.Second, 5, 50); got != 5 {
		t.Fatalf("subPercentile p50 = %v, want 5", got)
	}
	if got := subRatio([]float64{10, 10, 99, 10, 0}, []float64{5, 5, 1, 5, 0}); got != 2 {
		t.Fatalf("subRatio = %v, want 2 (the empty sub-window is skipped)", got)
	}
}

func TestUnattributedIsRootAndMissGlueSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 100}, // parse 0-10, encode 90-100
		{Name: "cache", ID: 1, Parent: 0, Start: 10, End: 90},    // key + lock 10-15, LRU 85-90
		{Name: "compute", ID: 2, Parent: 1, Start: 15, End: 85},
		{Name: "admit", ID: 3, Parent: 2, Start: 16, End: 20},
		{Name: "session", ID: 4, Parent: 2, Start: 22, End: 80},
		{Name: "admit", ID: 5, Parent: 2, Start: 80, End: 82},
	}
	self := selfTimes(spans)
	if self["cache"] != 10 || self["admit"] != 6 || self["compute"] != 6 {
		t.Fatalf("self times = %v", self)
	}
	// 20 ns in the root (parse, encode) and 6 ns of miss-path glue.
	if got := unattributed(self); got != 26 {
		t.Fatalf("unattributed = %v, want 26ns", got)
	}
}

func TestParseReadMirrorsHandlers(t *testing.T) {
	if s, d, err := parseRead(request{kind: kindRoute, s: 3, t: 7}.path(), 10); err != nil || s != 3 || d != 7 {
		t.Fatalf("route: %v %v %v", s, d, err)
	}
	if s, _, err := parseRead(request{kind: kindKNN, s: 9}.path(), 10); err != nil || s != 9 {
		t.Fatalf("knn: %v %v", s, err)
	}
	if _, _, err := parseRead("/route?s=3&t=10", 10); err == nil {
		t.Fatal("t out of range must fail")
	}
}
