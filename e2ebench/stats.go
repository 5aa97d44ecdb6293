package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: a p99 needs 1000 samples, a p99.9 needs 10000. With fewer
// the tail value is one or two outliers, not a percentile.
const minTail = 10

// quantile returns the q-quantile (nearest rank) of an ascending sample.
// It refuses a tail quantile (q > 0.5) with fewer than minTail samples
// beyond it, and any quantile of an empty sample.
func quantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%.4g of an empty sample", q*100)
	}
	if q > 0.5 && float64(n)*(1-q) < minTail-1e-6 {
		return 0, fmt.Errorf("p%.4g needs %d samples, have %d", q*100, int(math.Ceil(minTail/(1-q)-1e-6)), n)
	}
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], nil
}

// tailLadder is the set of percentiles the text report chooses from.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9}

// highestTail returns the highest percentile in tailLadder the sample
// supports (at least minTail samples beyond it) and its value.
func highestTail(sorted []float64) (q, v float64, ok bool) {
	for _, q := range tailLadder {
		if v, err := quantile(sorted, q); err == nil {
			return q, v, true
		}
	}
	return 0, 0, false
}

// maxParts is how many consecutive parts of a phase a window metric is
// computed over. The metric is the median part, so a few seconds in
// which the shared host stalls the process move it little, and on
// explore the part holding convergence does not set the steady p99.
const maxParts = 5

// partQuantile splits xs, in completion order, into consecutive parts
// of equal count — as many as maxParts, each with at least the samples
// quantile needs for q — and returns the median of the parts'
// q-quantiles. A p99 therefore needs 1000 samples, as with quantile.
func partQuantile(xs []float64, q float64) (float64, error) {
	per := 1
	if q > 0.5 {
		per = int(math.Ceil(minTail/(1-q) - 1e-6))
	}
	k := min(maxParts, len(xs)/per)
	if k < 1 {
		return quantile(sortedCopy(xs), q) // refused: too few samples
	}
	vals := make([]float64, k)
	for i := range vals {
		v, err := quantile(sortedCopy(xs[i*len(xs)/k:(i+1)*len(xs)/k]), q)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return median(vals), nil
}

// partRate splits [from, to) into maxParts equal spans and returns the
// median over spans of the events completed in the span per second;
// done holds each event's completion offset, weight its count.
func partRate(done []time.Duration, weight float64, from, to time.Duration) float64 {
	span := (to - from) / maxParts
	if span <= 0 {
		return 0
	}
	counts := make([]float64, maxParts)
	for _, d := range done {
		if i := int((d - from) / span); i >= 0 {
			counts[min(i, maxParts-1)] += weight
		}
	}
	for i := range counts {
		counts[i] /= span.Seconds()
	}
	return median(counts)
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// describe renders a latency sample for the text report: count, p50 and
// the highest supported tail percentile.
func describe(name string, xs []float64) string {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return name + ": no samples"
	}
	p50, _ := quantile(s, 0.5)
	out := fmt.Sprintf("%s: n=%d p50=%.4g", name, len(s), p50)
	if q, v, ok := highestTail(s); ok {
		out += fmt.Sprintf(" p%.4g=%.4g", q*100, v)
	}
	return out + fmt.Sprintf(" max=%.4g", s[len(s)-1])
}
