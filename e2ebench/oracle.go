package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro"
	"repro/internal/server"
)

// Answers are checked after the timed window, never inside it: an
// oracle running beside the server competes with it for the same
// cores.

// oracle computes the exact answer to a reader query over the loaded
// rows.
type oracle interface {
	expect(q readQuery) expected
}

// expected is an exact answer in the server's aggregate terms.
type expected struct {
	count, sum, min, max int64
}

// sortedOracle answers a value-range aggregate over one column in
// O(log n): the column sorted once, plus prefix sums. A full scan per
// query would make checking a window's thousands of answers take longer
// than the window.
type sortedOracle struct {
	sorted []int64
	prefix []int64 // prefix[i] = sum of sorted[:i]
}

func newSortedOracle(vals []int64) *sortedOracle {
	o := &sortedOracle{sorted: slices.Clone(vals), prefix: make([]int64, len(vals)+1)}
	slices.Sort(o.sorted)
	for i, v := range o.sorted {
		o.prefix[i+1] = o.prefix[i] + v
	}
	return o
}

func (o *sortedOracle) expect(q readQuery) expected {
	return o.answer(q.req.Pred.Lo, q.req.Pred.Hi)
}

func (o *sortedOracle) answer(lo, hi int64) expected {
	i, _ := slices.BinarySearch(o.sorted, lo)
	j := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] > hi })
	if j <= i {
		return expected{}
	}
	return expected{count: int64(j - i), sum: o.prefix[j] - o.prefix[i], min: o.sorted[i], max: o.sorted[j-1]}
}

// compositeOracle scans a multi-column table's rows like the load
// generator's brute-force check, but only the rows whose c0 lies in the
// query's c0 window: every composite query carries a c0 range, and the
// rows are visited in c0 order.
type compositeOracle struct {
	flat   []int64
	k      int
	byC0   []int32 // row numbers ordered by c0
	c0Sort []int64 // c0 values in that order
}

func newCompositeOracle(flat []int64, k int) *compositeOracle {
	n := len(flat) / k
	o := &compositeOracle{flat: flat, k: k, byC0: make([]int32, n), c0Sort: make([]int64, n)}
	for i := range o.byC0 {
		o.byC0[i] = int32(i)
	}
	sort.Slice(o.byC0, func(a, b int) bool { return flat[int(o.byC0[a])*k] < flat[int(o.byC0[b])*k] })
	for i, r := range o.byC0 {
		o.c0Sort[i] = flat[int(r)*k]
	}
	return o
}

func (o *compositeOracle) expect(q readQuery) expected {
	c0 := q.preds[0]
	i, _ := slices.BinarySearch(o.c0Sort, c0.lo)
	e := expected{min: math.MaxInt64, max: math.MinInt64}
	for ; i < len(o.c0Sort) && o.c0Sort[i] <= c0.hi; i++ {
		row := o.flat[int(o.byC0[i])*o.k:][:o.k]
		ok := true
		for _, p := range q.preds[1:] {
			if row[p.col] < p.lo || row[p.col] > p.hi {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v := row[q.target]
		e.count++
		e.sum += v
		e.min = min(e.min, v)
		e.max = max(e.max, v)
	}
	return e
}

// compare checks every aggregate the query asked for.
func compare(e expected, aggs []string, resp server.QueryResponse) error {
	if resp.Count != e.count {
		return fmt.Errorf("count %d, want %d", resp.Count, e.count)
	}
	for _, a := range aggs {
		switch a {
		case "sum":
			if resp.Sum == nil || *resp.Sum != e.sum {
				return fmt.Errorf("sum %s, want %d", show(resp.Sum), e.sum)
			}
		case "min":
			if e.count > 0 && (resp.Min == nil || *resp.Min != e.min) {
				return fmt.Errorf("min %s, want %d", show(resp.Min), e.min)
			}
		case "max":
			if e.count > 0 && (resp.Max == nil || *resp.Max != e.max) {
				return fmt.Errorf("max %s, want %d", show(resp.Max), e.max)
			}
		case "avg":
			if want := float64(e.sum) / float64(e.count); e.count > 0 && (resp.Avg == nil || *resp.Avg != want) {
				return fmt.Errorf("avg mismatch, want %v", want)
			}
		}
	}
	return nil
}

func show(p *int64) string {
	if p == nil {
		return "absent"
	}
	return fmt.Sprint(*p)
}

// fullScanSample is how many of a run's single-column answers are also
// replayed on the library's FullScan, so the sorted oracle itself is
// checked against the brute-force scan.
const fullScanSample = 32

// crossCheck replays the first fullScanSample queries on FullScan and
// fails if it disagrees with the sorted oracle.
func crossCheck(vals []int64, o *sortedOracle, recs []queryRecord) error {
	fs, err := progidx.New(vals, progidx.Options{Strategy: progidx.StrategyFullScan})
	if err != nil {
		return fmt.Errorf("full-scan oracle: %w", err)
	}
	for _, r := range recs[:min(len(recs), fullScanSample)] {
		q := r.q
		want, err := fs.Execute(q.req)
		if err != nil {
			return fmt.Errorf("full-scan oracle on %v: %w", q.req.Pred, err)
		}
		got := o.expect(q)
		if got.count != want.Count || got.sum != want.Sum {
			return fmt.Errorf("sorted oracle disagrees with FullScan on %v: count %d/%d sum %d/%d",
				q.req.Pred, got.count, want.Count, got.sum, want.Sum)
		}
	}
	return nil
}
