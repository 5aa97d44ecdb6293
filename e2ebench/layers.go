package main

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/plan"
	"repro/internal/server"
)

// scrape is one reading of /stats (the workload table's scheduler
// counters) and /metrics (every series, keyed by name and labels).
type scrape struct {
	sched server.Metrics
	prom  map[string]float64
}

// dirBytes is the size of the files under the store's directory, 0 for
// a workload without one. The walk skips what it cannot stat.
func (b *bench) dirBytes() float64 {
	var n float64
	if b.dataDir != "" {
		_ = filepath.WalkDir(b.dataDir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if fi, err := d.Info(); err == nil {
					n += float64(fi.Size())
				}
			}
			return nil
		})
	}
	return n
}

func (b *bench) scrape() (scrape, error) {
	var st server.StatsResponse
	if err := b.c.get("/stats", &st); err != nil {
		return scrape{}, err
	}
	var s scrape
	found := false
	for _, t := range st.Tables {
		if t.Name == b.w.name {
			s.sched, found = t.Scheduler, true
		}
	}
	if !found {
		return scrape{}, fmt.Errorf("/stats lists no table %q", b.w.name)
	}
	var text string
	if err := b.c.get("/metrics", &text); err != nil {
		return scrape{}, err
	}
	s.prom = parseProm(text)
	return s, nil
}

// parseProm reads Prometheus text exposition: every sample line becomes
// series → value, where series is the name with its label set.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// spanSamples gathers, over a traced window, the per-layer samples the
// span trees carry.
type spanSamples struct {
	httpSelf, queueWait, walSync []float64 // ms
	index, overBudget            []float64 // ms, ratio
	planSelf                     []float64 // ms
	fanout, straggler            []float64 // ms, ratio
	tailScan, merge              []float64 // ms

	budgetToConverge  float64 // cost-model seconds spent up to convergence
	rowsScanned       float64
	scanNs, scanRows  float64 // converged index spans
	packedNs, packedR float64 // shard spans on packed segments

	planScannedBlocks, planPrunedBlocks float64
	planMatched, planResidual           float64
	shardsTotal, shardsPruned           float64

	recon reconciliation
}

func ms(us int64) float64 { return float64(us) / 1e3 }

// collect walks every traced answer of the window in completion order;
// indexing budget counts toward convergence for the first convQ.
func collect(ordered []*queryRecord, convQ int) (*spanSamples, error) {
	s := &spanSamples{}
	for i, r := range ordered {
		tr := r.resp.Trace
		if tr == nil || tr.Root == nil {
			return nil, fmt.Errorf("traced query at %v returned no trace", r.sent)
		}
		root := tr.Root
		rtt := (r.done - r.sent).Microseconds()
		s.httpSelf = append(s.httpSelf, ms(rtt-root.DurMicros))
		s.recon.add(root, rtt)
		counting := i < convQ
		for _, c := range root.Children {
			switch c.Name {
			case "queue_wait":
				s.queueWait = append(s.queueWait, ms(c.DurMicros))
			case "wal_sync":
				s.walSync = append(s.walSync, ms(c.DurMicros))
			case "execute":
				s.execute(c, counting)
			}
		}
	}
	return s, nil
}

// execute folds one execute span's subtree into the samples.
func (s *spanSamples) execute(exec *span, counting bool) {
	walk(exec, func(sp *span) {
		switch sp.Name {
		case "index":
			s.index = append(s.index, ms(sp.DurMicros))
			rows, budget := sp.Attrs.RowsScanned, sp.Attrs.BudgetSpentS
			s.rowsScanned += rows
			if budget > 0 {
				s.overBudget = append(s.overBudget, float64(sp.DurMicros)/1e6/budget)
			}
			if counting {
				s.budgetToConverge += budget
			}
			if sp.Attrs.Phase == "done" && rows > 0 {
				s.scanNs += float64(sp.DurMicros) * 1e3
				s.scanRows += rows
			}
		case "plan":
			// The planner records its span after the fused scan it
			// chose, so the plan layer's time is the execute span's own.
			s.planSelf = append(s.planSelf, ms(selfMicros(exec)))
			s.planScannedBlocks += sp.Attrs.ScannedBlocks
			s.planPrunedBlocks += sp.Attrs.PrunedBlocks
			s.planMatched += sp.Attrs.MatchedRows
			s.planResidual += sp.Attrs.ResidualRows
		case "shard_fanout":
			s.fanout = append(s.fanout, ms(sp.DurMicros))
			s.shardsTotal += sp.Attrs.Shards
			s.shardsPruned += sp.Attrs.prunedCount()
			var durs []float64
			for _, c := range sp.Children {
				if c.Name == "shard" && !c.Attrs.prunedFlag() {
					durs = append(durs, float64(c.DurMicros))
				}
			}
			if m := median(durs); len(durs) >= 2 && m > 0 {
				s.straggler = append(s.straggler, sortedCopy(durs)[len(durs)-1]/m)
			}
		case "shard":
			if sp.Attrs.prunedFlag() {
				return
			}
			rows := sp.Attrs.RowsScanned
			s.rowsScanned += rows
			if counting {
				s.budgetToConverge += sp.Attrs.BudgetSpentS
			}
			if enc := sp.Attrs.Encoding; enc != "" && enc != "raw" && rows > 0 {
				s.packedNs += float64(sp.DurMicros) * 1e3
				s.packedR += rows
			}
		case "merge":
			s.merge = append(s.merge, ms(sp.DurMicros))
		case "tail_scan":
			s.tailScan = append(s.tailScan, ms(sp.DurMicros))
		}
	})
}

// layerMetrics computes the per-layer metrics of a traced pass p; the
// untraced pass before it on the same workload gives the tracing
// overhead. A layer the workload does not reach reads 0; a tail
// percentile with too few samples reads 0 and is named in the text
// report.
func (b *bench) layerMetrics(p, untraced *pass) (map[string]metric, error) {
	ordered := okQueries(p.queries)
	if len(ordered) == 0 {
		return nil, errors.New("no query answered")
	}
	convQ, converged := convergence(ordered)
	s, err := collect(ordered, convQ)
	if err != nil {
		return nil, err
	}
	if err := s.recon.err(); err != nil {
		return nil, err
	}
	fmt.Printf("reconciliation: %d traces, %.2f%% of root time outside queue_wait+wal_sync+execute\n",
		s.recon.traces, 100*s.recon.unattributed())

	m := map[string]metric{}
	pct := func(name, unit string, xs []float64, q float64) {
		v, err := quantile(sortedCopy(xs), q)
		if err != nil && len(xs) > 0 {
			fmt.Printf("%s refused: %v\n", name, err)
		}
		m[name] = metric{v, unit}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	pct("server.http_self_p50_ms", "ms", s.httpSelf, 0.5)
	pct("server.http_self_p99_ms", "ms", s.httpSelf, 0.99)

	before, after := p.before.sched, p.after.sched
	pct("scheduler.queue_wait_p50_ms", "ms", s.queueWait, 0.5)
	pct("scheduler.queue_wait_p99_ms", "ms", s.queueWait, 0.99)
	m["scheduler.avg_batch"] = metric{ratio(
		float64(after.Queries+after.Appends-before.Queries-before.Appends),
		float64(after.Batches-before.Batches)), "count"}
	m["scheduler.idle_slices"] = metric{float64(after.IdleSlices - before.IdleSlices), "count"}
	m["scheduler.idle_work_s"] = metric{after.IdleWorkSec - before.IdleWorkSec, "s"}
	m["scheduler.sheds"] = metric{float64(after.Sheds - before.Sheds), "count"}

	pct("progidx.index_p50_ms", "ms", s.index, 0.5)
	pct("progidx.index_p99_ms", "ms", s.index, 0.99)

	pct("core.index_over_budget_p50", "x", s.overBudget, 0.5)
	// About one index call per batch spends budget until convergence,
	// ~100 on explore: too few for a p99, so the worst overrun is kept.
	m["core.index_over_budget_max"] = metric{slices.Max(append([]float64{0}, s.overBudget...)), "x"}
	m["core.budget_spent_s_sum"] = metric{s.budgetToConverge, "s"}
	m["core.converge_queries"] = metric{median(b.convQs), "count"}
	fmt.Printf("traced window: first done answer: %v, after %d answers\n", converged, convQ)
	m["core.rows_scanned_per_query"] = metric{s.rowsScanned / float64(len(ordered)), "rows"}

	m["column.scan_ns_per_row"] = metric{ratio(s.scanNs, s.scanRows), "ns/row"}

	pct("plan.self_p50_ms", "ms", s.planSelf, 0.5)
	pct("plan.self_p99_ms", "ms", s.planSelf, 0.99)
	m["plan.pruned_block_frac"] = metric{ratio(s.planPrunedBlocks, s.planPrunedBlocks+s.planScannedBlocks), "frac"}
	m["plan.rows_examined_per_match"] = metric{ratio(s.planScannedBlocks*plan.BlockRows, s.planMatched), "rows/match"}
	m["plan.residual_rows_per_match"] = metric{ratio(s.planResidual, s.planMatched), "rows/match"}

	pct("shard.fanout_p50_ms", "ms", s.fanout, 0.5)
	pct("shard.fanout_p99_ms", "ms", s.fanout, 0.99)
	m["shard.pruned_frac"] = metric{ratio(s.shardsPruned, s.shardsTotal), "frac"}
	pct("shard.straggler_ratio_p99", "x", s.straggler, 0.99)
	pct("shard.tail_scan_p99_ms", "ms", s.tailScan, 0.99)
	pct("shard.merge_p99_ms", "ms", s.merge, 0.99)

	m["encode.packed_scan_ns_per_row"] = metric{ratio(s.packedNs, s.packedR), "ns/row"}

	// Every fsync lands in the histogram; a wal_sync span exists only
	// when a traced query shared a batch with an append.
	syncHist := histDelta(p.before.prom, p.after.prom, "progidx_wal_sync_seconds")
	for _, q := range []struct {
		name string
		q    float64
	}{{"durable.wal_sync_p50_ms", 0.5}, {"durable.wal_sync_p99_ms", 0.99}} {
		v, err := syncHist.quantile(q.q)
		if err != nil && syncHist.count() > 0 {
			fmt.Printf("%s refused: %v\n", q.name, err)
		}
		m[q.name] = metric{v * 1e3, "ms"}
	}
	fmt.Println(describe("wal_sync_span_ms", s.walSync))
	syncs := p.after.prom["progidx_wal_syncs_total"] - p.before.prom["progidx_wal_syncs_total"]
	m["durable.rows_per_sync"] = metric{ratio(float64(after.AppendRows-before.AppendRows), syncs), "rows"}
	m["durable.snapshots"] = metric{p.after.prom["progidx_snapshots_total"] - p.before.prom["progidx_snapshots_total"], "count"}
	m["durable.dir_bytes_per_row"] = metric{ratio(p.dirBytes, float64(p.rowsAfter)), "B/row"}

	var off, on []float64
	for _, r := range okQueries(untraced.queries) {
		off = append(off, r.latencyMs())
	}
	for _, r := range ordered {
		on = append(on, r.latencyMs())
	}
	m["obs.trace_overhead_frac"] = metric{ratio(median(on), median(off)) - 1, "frac"}
	fmt.Println(describe("untraced_query_ms", off))
	return m, nil
}

// hist is a Prometheus histogram's bucket counts over a window:
// cumulative counts by upper bound, ascending, +Inf last.
type hist struct {
	bounds []float64
	cum    []float64
}

// histDelta subtracts two scrapes of the unlabelled histogram name.
func histDelta(before, after map[string]float64, name string) hist {
	prefix := name + `_bucket{le="`
	var h hist
	type bucket struct{ le, n float64 }
	var bs []bucket
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(series[len(prefix):], `"}`), 64)
		if err != nil {
			continue // ParseFloat reads "+Inf" too; anything else is not a bound
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	for _, b := range bs {
		h.bounds = append(h.bounds, b.le)
		h.cum = append(h.cum, b.n)
	}
	return h
}

func (h hist) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation, as Prometheus' histogram_quantile does, under the same
// minTail rule as quantile.
func (h hist) quantile(q float64) (float64, error) {
	n := h.count()
	if n == 0 {
		return 0, fmt.Errorf("p%.4g of an empty histogram", q*100)
	}
	if q > 0.5 && n*(1-q) < minTail-1e-6 {
		return 0, fmt.Errorf("p%.4g needs %d observations, have %.0f", q*100, int(math.Ceil(minTail/(1-q)-1e-6)), n)
	}
	rank := q * n
	prevBound, prevCum := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			if math.IsInf(h.bounds[i], 1) {
				return prevBound, nil
			}
			if c == prevCum {
				return h.bounds[i], nil
			}
			return prevBound + (h.bounds[i]-prevBound)*(rank-prevCum)/(c-prevCum), nil
		}
		prevBound, prevCum = h.bounds[i], c
	}
	return prevBound, nil
}
