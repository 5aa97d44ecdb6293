package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/server"
)

// workload is one traffic mix against one freshly loaded table.
type workload struct {
	name string
	rows int
	// columns is the multi-column schema; nil for a single-column table.
	columns []string
	opts    catalog.Options
	// durable tables live in a store with the WAL fsynced once per
	// admission batch and checkpoints every snapshotInterval.
	durable          bool
	snapshotInterval time.Duration
	readers          int
	// concurrentWriter runs the one writer session beside the readers
	// for the whole window. Otherwise the readers have the first
	// readShare of the window, so the read metrics see the table as
	// loaded, and the writer the rest, alone: its appends then measure
	// the append path, not a wait behind the readers' queries.
	concurrentWriter bool
	readShare        float64
}

// appendBatch is the rows per append request.
const appendBatch = 256

func boolPtr(b bool) *bool { return &b }

// workloads are the three analyst sessions. Two client sessions at
// most: the benchmark shares a 2-core host with the server, and a
// closed loop with more sessions than cores measures the run queue.
var workloads = map[string]workload{
	// The paper's own setting: one uniform column far larger than the
	// last-level cache, progressive quicksort at δ=0.25, and no idle
	// refinement, so convergence is paid for by queries alone. It
	// exercises internal/core while converging and the column kernels
	// and HTTP after.
	"explore": {
		name: "explore",
		rows: 10_000_000,
		opts: catalog.Options{
			Strategy:   progidx.StrategyQuicksort,
			Delta:      0.25,
			IdleRefine: boolPtr(false),
		},
		readers:   2,
		readShare: 0.75,
	},
	// Composite predicates over a correlated 3-column FOR-BP table:
	// internal/plan chooses the driving column, prunes blocks on zone
	// maps and runs the fused residual scan, bypassing the progressive
	// index that explore stresses.
	"composite": {
		name:    "composite",
		rows:    2_000_000,
		columns: []string{"c0", "c1", "c2"},
		opts: catalog.Options{
			Strategy: progidx.StrategyQuicksort,
			Delta:    0.25,
			Encoding: progidx.EncodingFORBP,
			Columns:  []string{"c0", "c1", "c2"},
		},
		readers: 2,
		// Reads repeat closely run to run; the appends' p99 needs the
		// longer phase to rest on enough samples.
		readShare: 0.5,
	},
	// Writes beside reads on a durable, 8-shard FOR-BP table: shard
	// fan-out and tail, packed scans, WAL fsync per batch and periodic
	// checkpoints, and the scheduler mixing appends with queries.
	"ingest": {
		name: "ingest",
		rows: 4_000_000,
		opts: catalog.Options{
			Strategy: progidx.StrategyQuicksort,
			Delta:    0.25,
			Shards:   8,
			Encoding: progidx.EncodingFORBP,
		},
		durable:          true,
		snapshotInterval: 2 * time.Second,
		readers:          1,
		concurrentWriter: true,
	},
}

// generate makes the table's rows from the seed: flat row-major tuples
// for a multi-column table.
func (w workload) generate(seed int64) []int64 {
	if w.columns != nil {
		return data.MultiColumn(w.rows, len(w.columns), seed)
	}
	return data.Uniform(w.rows, seed)
}

// readQuery is one reader request in wire form plus the form the
// oracle checks it with.
type readQuery struct {
	wire server.QueryRequest
	// Single-column tables: the predicate and aggregates as the library
	// takes them.
	req progidx.Request
	// Composite tables: inclusive value windows per column, and the
	// aggregated column.
	preds  []colRange
	target int
}

// colRange is one column predicate in oracle form.
type colRange struct {
	col    int
	lo, hi int64
}

// nextQuery draws the workload's next reader query. Bounded queries
// never reach the writer's rows above 2n; readers need them whenever
// the table may hold appended rows. Composite queries always are: their
// c0 window ends below 1.01n.
func (w workload) nextQuery(rng *rand.Rand, bounded bool) readQuery {
	if w.columns != nil {
		return compositeQuery(rng, int64(w.rows))
	}
	return singleQuery(rng, int64(w.rows), bounded)
}

// openingQuery is every cold start's first query, the same shape on
// every seed so first_query_ms compares one query's cost: a quarter of
// the domain with every aggregate, or a 0.5% c0 window with a residual
// on c1 aggregated over c2.
func (w workload) openingQuery() readQuery {
	n := int64(w.rows)
	lo, hi := n/4, n/2-1
	if w.columns == nil {
		return readQuery{
			wire: server.QueryRequest{
				Pred: server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi},
				Aggs: []string{"sum", "count", "min", "max", "avg"},
			},
			req: progidx.Request{Pred: progidx.Range(lo, hi), Aggs: progidx.AllAggregates},
		}
	}
	c0lo, c0hi := n/2, n/2+n/200
	ge := progidx.AtLeast(lo)
	return readQuery{
		wire: server.QueryRequest{
			Predicates: []server.ColPredSpec{
				{Col: "c0", PredSpec: server.PredSpec{Kind: "range", Lo: &c0lo, Hi: &c0hi}},
				{Col: "c1", PredSpec: server.PredSpec{Kind: "atleast", Value: &lo}},
			},
			Target: "c2",
			Aggs:   []string{"sum", "count", "min", "max"},
		},
		preds:  []colRange{{col: 0, lo: c0lo, hi: c0hi}, {col: 1, lo: ge.Lo, hi: ge.Hi}},
		target: 2,
	}
}

// singleQuery is the load generator's mix: 5/8 ranges up to n/4 wide,
// 1/8 point probes, 2/8 open-ended ranges, each with either SUM+COUNT
// or every aggregate. With bounded set the open-ended AtLeast becomes
// an AtMost, which keeps every predicate below 2n.
func singleQuery(rng *rand.Rand, n int64, bounded bool) readQuery {
	var (
		pred progidx.Predicate
		spec server.PredSpec
	)
	switch rng.Intn(8) {
	case 0:
		v := rng.Int63n(n)
		pred, spec = progidx.Point(v), server.PredSpec{Kind: "point", Value: &v}
	case 1:
		v := rng.Int63n(n)
		if bounded {
			pred, spec = progidx.AtMost(v), server.PredSpec{Kind: "atmost", Value: &v}
		} else {
			pred, spec = progidx.AtLeast(v), server.PredSpec{Kind: "atleast", Value: &v}
		}
	case 2:
		v := rng.Int63n(n)
		pred, spec = progidx.AtMost(v), server.PredSpec{Kind: "atmost", Value: &v}
	default:
		lo := rng.Int63n(n)
		hi := lo + rng.Int63n(n/4+1)
		pred, spec = progidx.Range(lo, hi), server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}
	}
	aggs, names := progidx.Sum|progidx.Count, []string{"sum", "count"}
	if rng.Intn(2) == 0 {
		aggs, names = progidx.AllAggregates, []string{"sum", "count", "min", "max", "avg"}
	}
	return readQuery{
		wire: server.QueryRequest{Pred: spec, Aggs: names},
		req:  progidx.Request{Pred: pred, Aggs: aggs},
	}
}

// compositeQuery is a narrow range on the clustered c0 (up to 1% of the
// rows), one residual predicate on c1 or c2, and SUM/COUNT/MIN/MAX of
// the remaining column.
func compositeQuery(rng *rand.Rand, n int64) readQuery {
	lo := rng.Int63n(n)
	hi := lo + rng.Int63n(n/100+1)
	q := readQuery{
		wire: server.QueryRequest{
			Predicates: []server.ColPredSpec{
				{Col: "c0", PredSpec: server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}},
			},
			Aggs: []string{"sum", "count", "min", "max"},
		},
		preds: []colRange{{col: 0, lo: lo, hi: hi}},
	}
	res := 1 + rng.Intn(2)
	q.target = 3 - res
	name := fmt.Sprintf("c%d", res)
	v := rng.Int63n(n)
	var spec server.PredSpec
	switch rng.Intn(3) {
	case 0:
		w := v + rng.Int63n(n/2+1)
		q.preds = append(q.preds, colRange{col: res, lo: v, hi: w})
		spec = server.PredSpec{Kind: "range", Lo: &v, Hi: &w}
	case 1:
		ge := progidx.AtLeast(v)
		q.preds = append(q.preds, colRange{col: res, lo: ge.Lo, hi: ge.Hi})
		spec = server.PredSpec{Kind: "atleast", Value: &v}
	default:
		le := progidx.AtMost(v)
		q.preds = append(q.preds, colRange{col: res, lo: le.Lo, hi: le.Hi})
		spec = server.PredSpec{Kind: "atmost", Value: &v}
	}
	q.wire.Predicates = append(q.wire.Predicates, server.ColPredSpec{Col: name, PredSpec: spec})
	q.wire.Target = fmt.Sprintf("c%d", q.target)
	return q
}

// appendRequest is a writer batch: values first..first+appendBatch-1,
// as whole tuples (the value in every column) on a multi-column table.
func (w workload) appendRequest(first int64) server.AppendRequest {
	if w.columns == nil {
		vals := make([]int64, appendBatch)
		for i := range vals {
			vals[i] = first + int64(i)
		}
		return server.AppendRequest{Values: vals}
	}
	rows := make([][]int64, appendBatch)
	for i := range rows {
		row := make([]int64, len(w.columns))
		for c := range row {
			row[c] = first + int64(i)
		}
		rows[i] = row
	}
	return server.AppendRequest{Rows: rows}
}

// writerBase is the writer's first value: above every loaded value and
// every reader predicate, so reads stay checkable as the table grows.
func (w workload) writerBase() int64 { return 2 * int64(w.rows) }

// writerRangeQuery asks for everything the writer appended, through the
// composite route on a multi-column table.
func (w workload) writerRangeQuery(lo, hi int64) server.QueryRequest {
	q := server.QueryRequest{Aggs: []string{"sum", "count", "min", "max"}}
	if w.columns == nil {
		q.Pred = server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}
		return q
	}
	q.Predicates = []server.ColPredSpec{{Col: "c0", PredSpec: server.PredSpec{Kind: "range", Lo: &lo, Hi: &hi}}}
	q.Target = w.columns[len(w.columns)-1]
	return q
}
