package main

import (
	"math"
	"testing"
	"time"
)

// ramp returns 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileRefusesATailWithFewerThanTenSamplesBeyondIt(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{1, 0.5, true},
		{0, 0.5, false},
	} {
		_, err := quantile(ramp(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", tc.q*100, tc.n, err, tc.ok)
		}
	}
}

func TestQuantileIsTheNearestRank(t *testing.T) {
	xs := ramp(1000)
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.99, 990}, {0.9, 900}, {0.001, 1},
	} {
		got, err := quantile(xs, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g = %v, %v; want %v", tc.q*100, got, err, tc.want)
		}
	}
	// Ten samples lie beyond the p99 of 1000: 991..1000.
	p99, _ := quantile(xs, 0.99)
	beyond := 0
	for _, x := range xs {
		if x > p99 {
			beyond++
		}
	}
	if beyond != minTail {
		t.Errorf("%d samples beyond p99, want %d", beyond, minTail)
	}
}

func TestHighestTailReportsTheHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{100000, 0.9999, true},
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0, false},
	} {
		q, v, ok := highestTail(ramp(tc.n))
		if ok != tc.ok || q != tc.wantQ {
			t.Errorf("%d samples: p%g ok=%v, want p%g ok=%v", tc.n, q*100, ok, tc.wantQ*100, tc.ok)
			continue
		}
		if ok && v != math.Ceil(q*float64(tc.n)-1e-9) {
			t.Errorf("%d samples: p%g = %v", tc.n, q*100, v)
		}
	}
}

func TestDescribeNamesTheSampleCount(t *testing.T) {
	if got, want := describe("x", ramp(1000)), "x: n=1000 p50=500 p99=990 max=1000"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
	if got, want := describe("x", ramp(50)), "x: n=50 p50=25 max=50"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestPartQuantileIsTheMedianPart(t *testing.T) {
	// Five parts of 1000; the first is a stall ten times slower.
	var xs []float64
	for part := 0; part < maxParts; part++ {
		for _, x := range ramp(1000) {
			if part == 0 {
				x *= 10
			}
			xs = append(xs, x+float64(part))
		}
	}
	// Parts 1..4 have p99s 991..994, the stalled part 9900.
	if got, err := partQuantile(xs, 0.99); err != nil || got != 993 {
		t.Errorf("p99 = %v, %v; want 993", got, err)
	}
	// Its pooled p99 is the stall's.
	if pooled, _ := quantile(sortedCopy(xs), 0.99); pooled < 9000 {
		t.Errorf("pooled p99 = %v, want the stall's", pooled)
	}
	if got, err := partQuantile(xs, 0.5); err != nil || got != 503 {
		t.Errorf("p50 = %v, %v; want 503", got, err)
	}
}

func TestPartQuantileKeepsThePercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{999, false}, {1000, true}, {1999, true}, {2000, true}, {50000, true}} {
		_, err := partQuantile(ramp(tc.n), 0.99)
		if (err == nil) != tc.ok {
			t.Errorf("p99 of %d samples: err %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
	// 1999 samples make one part, the whole sample.
	got, _ := partQuantile(ramp(1999), 0.99)
	if want, _ := quantile(ramp(1999), 0.99); got != want {
		t.Errorf("p99 of one part = %v, want %v", got, want)
	}
	if _, err := partQuantile(nil, 0.5); err == nil {
		t.Error("p50 of no samples was not refused")
	}
}

func TestPartRateIsTheMedianSpan(t *testing.T) {
	// 100 events a second for 5 s, except none in the second second.
	var done []time.Duration
	for ms := 0; ms < 5000; ms += 10 {
		if ms < 1000 || ms >= 2000 {
			done = append(done, time.Duration(ms)*time.Millisecond)
		}
	}
	if got := partRate(done, 1, 0, 5*time.Second); got != 100 {
		t.Errorf("rate = %v, want 100", got)
	}
	if got := partRate(done, 256, 0, 5*time.Second); got != 25600 {
		t.Errorf("weighted rate = %v, want 25600", got)
	}
	// Events before the phase are not counted; the phase end falls in
	// the last span.
	if got := partRate([]time.Duration{-time.Second, 5 * time.Second}, 1, 0, 5*time.Second); got != 0 {
		t.Errorf("rate = %v, want 0", got)
	}
	if got := partRate(nil, 1, time.Second, time.Second); got != 0 {
		t.Errorf("rate of an empty phase = %v, want 0", got)
	}
}

func TestHistogramQuantileInterpolatesInsideTheBucket(t *testing.T) {
	before := map[string]float64{
		`h_bucket{le="1"}`: 5, `h_bucket{le="2"}`: 5, `h_bucket{le="4"}`: 5, `h_bucket{le="+Inf"}`: 5,
	}
	after := map[string]float64{
		`h_bucket{le="1"}`: 5, `h_bucket{le="2"}`: 505, `h_bucket{le="4"}`: 1005, `h_bucket{le="+Inf"}`: 1005,
		`other_bucket{le="1"}`: 7,
	}
	h := histDelta(before, after, "h")
	if h.count() != 1000 {
		t.Fatalf("count %v, want 1000", h.count())
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 2}, {0.25, 1.5}, {0.99, 3.96}} {
		got, err := h.quantile(tc.q)
		if err != nil || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%g = %v, %v; want %v", tc.q*100, got, err, tc.want)
		}
	}
	small := histDelta(nil, map[string]float64{`h_bucket{le="1"}`: 500, `h_bucket{le="+Inf"}`: 999}, "h")
	if _, err := small.quantile(0.99); err == nil {
		t.Error("p99 of 999 observations was not refused")
	}
	if v, err := small.quantile(0.9); err != nil || v != 1 {
		t.Errorf("p90 in the +Inf bucket = %v, %v; want the last finite bound 1", v, err)
	}
}
