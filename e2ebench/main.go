// Command e2ebench is the repository's end-to-end benchmark. It boots
// the progidx server in-process on a loopback listener, loads one
// workload's table through Server.Load from data generated from -seed,
// drives closed-loop client sessions over HTTP for a fixed window,
// checks every answer against an oracle after the window, and prints
// the metrics as one JSON object on the last line of standard output.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 every
// query carries ?trace=1 and it prints the per-layer metrics built from
// the returned span trees and from /stats and /metrics deltas. See
// README.md in this directory for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: explore, composite or ingest")
		seed    = flag.Int64("seed", 1, "seed for the table's data and the sessions' queries")
		seconds = flag.Int("seconds", 25, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 traces every query and reports per-layer metrics; 0 reports end-to-end metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload explore|composite|ingest, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// settings stamps a result with the host and the table's configuration,
// so results from different hosts or settings are not compared silently.
type settings struct {
	Workload         string  `json:"workload"`
	Seed             int64   `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Traced           bool    `json:"traced"`
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Rows             int     `json:"rows"`
	Columns          int     `json:"columns"`
	Strategy         string  `json:"strategy"`
	Delta            float64 `json:"delta"`
	Shards           int     `json:"shards"`
	Encoding         string  `json:"encoding"`
	IdleRefine       bool    `json:"idle_refine"`
	Fsync            string  `json:"fsync"`
	SnapshotInterval float64 `json:"snapshot_interval_s"`
	Readers          int     `json:"readers"`
	Writers          int     `json:"writers"`
	ReadShare        float64 `json:"read_share,omitempty"` // of the window, before the writer runs alone
	ColdStarts       int     `json:"cold_starts"`
	ConvergeStarts   int     `json:"converge_starts"`
}

func stamp(w workload, seed int64, window time.Duration, traced bool) settings {
	starts, _ := coldSplit(traced)
	s := settings{
		Workload: w.name, Seed: seed, Seconds: window.Seconds(), Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Rows: w.rows, Columns: max(1, len(w.columns)),
		Strategy: w.opts.Strategy.String(), Delta: w.opts.Delta, Shards: w.opts.Shards,
		Encoding: w.opts.Encoding.String(), IdleRefine: w.opts.IdleRefineEnabled(),
		Fsync: "none", Readers: w.readers, Writers: 1, ReadShare: w.readShare, ColdStarts: starts, ConvergeStarts: convergeStarts,
	}
	if w.durable {
		s.Fsync = "batch"
		s.SnapshotInterval = w.snapshotInterval.Seconds()
	}
	return s
}

// bench is one run's server and set-up observations.
type bench struct {
	w      workload
	seed   int64
	srv    *server.Server
	c      *client
	window time.Duration

	setupS      []float64
	bytesPerRow []float64
	dataDir     string // durable workloads: the store's directory

	// Cold starts, one per set-up load but the window's: the opening
	// query's latency, and for the first convergeStarts the answers and
	// seconds until the first done answer (censored at coldLimit, after
	// which the rest send only the opening query).
	cold                   pass
	firstMs, convS, convQs []float64
	censored               bool

	// Requests of the timed windows, attempted and failed.
	attempted, failed int
}

// pass is one timed window over the loaded table. Offsets are from its
// start.
type pass struct {
	start                 time.Time
	readStop              time.Duration
	writeStart, writeStop time.Duration
	queries               []queryRecord
	appends               []appendRecord
	before, after         scrape
	rowsAfter             int64   // table rows after the window
	dirBytes              float64 // the store's files after the window
}

// mismatch is a wrong answer: it fails the run outright.
type mismatch struct{ error }

func run(w workload, seed int64, window time.Duration, traced bool) (*result, error) {
	st := stamp(w, seed, window, traced)
	stj, _ := json.Marshal(st)
	fmt.Println("settings", string(stj))

	base := w.generate(seed)
	var o oracle
	if w.columns != nil {
		o = newCompositeOracle(base, len(w.columns))
	} else {
		o = newSortedOracle(base)
	}
	b := &bench{w: w, seed: seed, window: window}

	var store *durable.Store
	if w.durable {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(".bench_build", "e2ebench-data-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		b.dataDir = dir
		store, err = durable.Open(dir, durable.SyncBatch)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
	}
	b.srv = server.New(server.Config{
		Store:            store,
		SnapshotInterval: w.snapshotInterval,
		// Slow-query lines would interleave with the report.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer b.srv.Close()
	if _, err := b.srv.Recover(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: b.srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Shutdown(context.Background())
		<-served
	}()
	b.c = newClient(ln.Addr().String(), w.name)

	starts, before := coldSplit(traced)
	if err := b.coldStarts(base, o, 0, before); err != nil {
		return b.failure(err)
	}
	if err := b.load(base); err != nil {
		return nil, err
	}
	var untraced *pass
	if traced {
		// The traced run first repeats the untraced window on a fresh
		// table, so the tracing overhead compares like with like.
		untraced, err = b.pass(o, false)
		if err != nil {
			return b.failure(err)
		}
		if err := b.srv.Drop(w.name); err != nil {
			return nil, fmt.Errorf("drop %s: %w", w.name, err)
		}
		if _, err := b.srv.Load(w.name, slices.Clone(base), w.opts); err != nil {
			return nil, fmt.Errorf("load %s: %w", w.name, err)
		}
	}
	p, err := b.pass(o, traced)
	if err != nil {
		return b.failure(err)
	}
	res := &result{Correct: true}
	if traced {
		res.Metrics, err = b.layerMetrics(p, untraced)
	} else {
		res.Metrics, err = b.windowMetrics(p)
	}
	if err != nil {
		return nil, err
	}
	// The window's metrics are taken before the cold starts after it: its
	// records hold every answer, and on a traced run every span tree, and
	// once unreferenced they are no longer marked by the collections
	// those cold starts set off.
	summarize(p)
	if err := b.srv.Drop(w.name); err != nil {
		return nil, fmt.Errorf("drop %s: %w", w.name, err)
	}
	if err := b.coldStarts(base, o, before, starts); err != nil {
		return b.failure(err)
	}
	if so, ok := o.(*sortedOracle); ok {
		if err := crossCheck(base, so, b.cold.queries); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = b.counts()
	if !traced {
		res.Metrics["setup_s"] = metric{median(b.setupS), "s"}
		res.Metrics["first_query_ms"] = metric{median(b.firstMs), "ms"}
		res.Metrics["converge_s"] = metric{median(b.convS), "s"}
		res.Metrics["bytes_per_row"] = metric{median(b.bytesPerRow), "B/row"}
	}
	report(res)
	fmt.Printf("setup_s=%.4g\nbytes_per_row=%.4g\nfirst_query_ms=%.4g\nconverge_s=%.4g\nconverge_queries=%v\n",
		b.setupS, b.bytesPerRow, b.firstMs, b.convS, b.convQs)
	return res, nil
}

// failure turns a wrong answer into an incorrect result and passes any
// other error up.
func (b *bench) failure(err error) (*result, error) {
	var mm mismatch
	if !errors.As(err, &mm) {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "e2ebench: wrong answer:", err)
	res := &result{Correct: false, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = b.counts()
	return res, nil
}

// counts totals the requests attempted and failed in the run so far.
func (b *bench) counts() (attempted, failed int) {
	a, f := b.cold.counts()
	return a + b.attempted, f + b.failed
}

// counts totals the pass's requests attempted and failed.
func (p *pass) counts() (attempted, failed int) {
	attempted = len(p.queries) + len(p.appends)
	for i := range p.queries {
		if !p.queries[i].ok() {
			failed++
		}
	}
	for i := range p.appends {
		if !p.appends[i].ok() {
			failed++
		}
	}
	return attempted, failed
}

// Set-up loads coldStarts fresh tables besides the window's. Each
// answers its opening query; the first convergeStarts keep querying
// until they converge or coldLimit passes. Opening queries are cheap,
// so there are many: one ~10 ms query is easily caught by a stall of
// the host.
const (
	coldStarts     = 19
	convergeStarts = 3
	coldLimit      = 4 * time.Second
)

// coldSplit is how many cold starts a run makes, and how many of them
// come before the window: half, so that their medians sample the host
// across the run, as the window does. A traced run reports none of their
// metrics but core.converge_queries, taken before the window, so it
// makes only the converging ones.
func coldSplit(traced bool) (starts, before int) {
	if traced {
		return convergeStarts, convergeStarts
	}
	return coldStarts, coldStarts / 2
}

// load loads a fresh copy of the table through Server.Load, timing the
// call. Around it it reads the Go heap after a GC, so the difference is
// what the server retains per row.
func (b *bench) load(base []int64) error {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc
	vals := slices.Clone(base)
	t0 := time.Now()
	if _, err := b.srv.Load(b.w.name, vals, b.w.opts); err != nil {
		return fmt.Errorf("load %s: %w", b.w.name, err)
	}
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	vals = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.bytesPerRow = append(b.bytesPerRow, (float64(ms.HeapAlloc)-float64(heapBefore))/float64(b.w.rows))
	return nil
}

// coldStarts runs cold starts from..to-1, each on a table it loads and
// drops.
func (b *bench) coldStarts(base []int64, o oracle, from, to int) error {
	for i := from; i < to; i++ {
		if err := b.load(base); err != nil {
			return err
		}
		// The opening query alone, unless this start is one of the
		// converging ones. A start that hits coldLimit stands for the
		// rest: they would be censored at the same point.
		var limit time.Duration
		if i < convergeStarts && !b.censored {
			limit = coldLimit
		}
		recs := coldStart(b.c, b.w, b.seed*1000+100+int64(i), limit)
		b.cold.queries = append(b.cold.queries, recs...)
		if err := checkAnswers(o, recs); err != nil {
			return err
		}
		ordered := okQueries(recs)
		if len(ordered) == 0 {
			return errors.New("cold start: no query answered")
		}
		b.firstMs = append(b.firstMs, ordered[0].latencyMs())
		// An opening query already answered done is a whole convergence.
		if convQ, converged := convergence(ordered); converged || limit > 0 {
			b.convS = append(b.convS, ordered[convQ-1].done.Seconds())
			b.convQs = append(b.convQs, float64(convQ))
			b.censored = b.censored || !converged
		}
		if err := b.srv.Drop(b.w.name); err != nil {
			return fmt.Errorf("drop %s: %w", b.w.name, err)
		}
	}
	return nil
}

// pass runs one timed window: readers, and the writer beside them or
// after them, in closed loops, with /stats and /metrics scraped before
// and after. Then it checks every answer.
func (b *bench) pass(o oracle, traced bool) (*pass, error) {
	p := &pass{}
	var err error
	if p.before, err = b.scrape(); err != nil {
		return p, err
	}
	always := func(int) bool { return traced }
	p.start = time.Now()
	end := p.start.Add(b.window)
	if b.w.concurrentWriter {
		// Readers beside the writer use bounded predicates, which never
		// reach the writer's rows.
		done := make(chan []appendRecord, 1)
		go func() { done <- writer(b.c, b.w, p.start, end) }()
		p.queries = readers(b.c, b.w, b.seed, b.w.readers, p.start, end, true, always)
		p.appends = <-done
	} else {
		split := p.start.Add(time.Duration(float64(b.window) * b.w.readShare))
		p.queries = readers(b.c, b.w, b.seed, b.w.readers, p.start, split, false, always)
		p.writeStart = time.Since(p.start)
		p.appends = writer(b.c, b.w, p.start, end)
	}
	a, f := p.counts()
	b.attempted += a
	b.failed += f
	// A phase ends when its last session returned, not at the deadline.
	p.readStop = lastDone(p.queries)
	p.writeStop = lastAppend(p.appends)
	if p.after, err = b.scrape(); err != nil {
		return p, err
	}
	p.dirBytes = b.dirBytes()
	return p, b.verify(o, p)
}

func lastDone(recs []queryRecord) time.Duration {
	var d time.Duration
	for i := range recs {
		d = max(d, recs[i].done)
	}
	return d
}

func lastAppend(recs []appendRecord) time.Duration {
	var d time.Duration
	for i := range recs {
		d = max(d, recs[i].done)
	}
	return d
}

// verify checks every answered query against the oracle, every acked
// append against the writer's closed form, and the table's final row
// count. The first wrong answer names the query.
func (b *bench) verify(o oracle, p *pass) error {
	if err := checkAnswers(o, p.queries); err != nil {
		return err
	}

	wbase := b.w.writerBase()
	acked := int64(0)
	for i := range p.appends {
		a := &p.appends[i]
		if !a.ok() {
			continue
		}
		if a.resp.Appended != appendBatch || a.first != wbase+acked {
			return mismatch{fmt.Errorf("append sent at %v: acked %d rows starting at %d, want %d starting at %d",
				a.sent, a.resp.Appended, a.first, appendBatch, wbase+acked)}
		}
		acked += appendBatch
	}
	if acked > 0 {
		var resp server.QueryResponse
		q := b.w.writerRangeQuery(wbase, wbase+acked-1)
		body, err := json.Marshal(q)
		if err != nil {
			return err
		}
		status, payload, err := b.c.post("/tables/"+b.w.name+"/query", body)
		if status, err = decode(status, payload, err, &resp); err != nil || status != http.StatusOK {
			return fmt.Errorf("writer range query: status %d: %v", status, err)
		}
		want := expected{count: acked, sum: acked * (2*wbase + acked - 1) / 2, min: wbase, max: wbase + acked - 1}
		if err := compare(want, q.Aggs, resp); err != nil {
			return mismatch{fmt.Errorf("writer range [%d,%d]: %w", wbase, wbase+acked-1, err)}
		}
	}
	var info struct {
		Rows int64 `json:"rows"`
	}
	if err := b.c.get("/tables/"+b.w.name, &info); err != nil {
		return err
	}
	p.rowsAfter = info.Rows
	if info.Rows != int64(b.w.rows)+acked {
		return mismatch{fmt.Errorf("table has %d rows after %d acked appended rows, want %d", info.Rows, acked, int64(b.w.rows)+acked)}
	}
	return nil
}

// checkAnswers compares every answered query with the oracle.
func checkAnswers(o oracle, recs []queryRecord) error {
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		if err := compare(o.expect(r.q), r.q.wire.Aggs, r.resp.QueryResponse); err != nil {
			return mismatch{fmt.Errorf("session %d query sent at %v (%s): %w", r.session, r.sent, wireString(r.q.wire), err)}
		}
	}
	return nil
}

func wireString(q server.QueryRequest) string {
	out, _ := json.Marshal(q)
	return string(out)
}

// okQueries returns the answered queries ordered by completion.
func okQueries(recs []queryRecord) []*queryRecord {
	var out []*queryRecord
	for i := range recs {
		if recs[i].ok() {
			out = append(out, &recs[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].done < out[j].done })
	return out
}

// convergence counts the answers up to and including the first whose
// phase is done. When none is, the count is censored at the last answer:
// converged is false and queries is every answer.
func convergence(ordered []*queryRecord) (queries int, converged bool) {
	for i, r := range ordered {
		if r.resp.Stats.Phase == "done" {
			return i + 1, true
		}
	}
	return len(ordered), false
}

// windowMetrics computes the user-visible metrics of an untraced
// window; the cold starts' are added after the last of them.
func (b *bench) windowMetrics(p *pass) (map[string]metric, error) {
	ordered := okQueries(p.queries)
	if len(ordered) == 0 {
		return nil, errors.New("no query answered")
	}
	lat := make([]float64, len(ordered))
	done := make([]time.Duration, len(ordered))
	for i, r := range ordered {
		lat[i], done[i] = r.latencyMs(), r.done
	}
	p50, err := partQuantile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p99, err := partQuantile(lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("query_p99_ms: %w", err)
	}
	acked := ackedAppends(p.appends)
	alat := make([]float64, len(acked))
	adone := make([]time.Duration, len(acked))
	for i, a := range acked {
		alat[i], adone[i] = a.latencyMs(), a.done
	}
	ap99, err := partQuantile(alat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("append_p99_ms: %w", err)
	}
	attempted, failed := p.counts()
	return map[string]metric{
		"query_qps":         {partRate(done, 1, 0, p.readStop), "1/s"},
		"query_p50_ms":      {p50, "ms"},
		"query_p99_ms":      {p99, "ms"},
		"append_rows_per_s": {partRate(adone, appendBatch, p.writeStart, p.writeStop), "rows/s"},
		"append_p99_ms":     {ap99, "ms"},
		"answered_frac":     {float64(attempted-failed) / float64(attempted), "frac"},
	}, nil
}

// ackedAppends returns the acknowledged appends, in completion order:
// there is one writer.
func ackedAppends(recs []appendRecord) []*appendRecord {
	var out []*appendRecord
	for i := range recs {
		if recs[i].ok() {
			out = append(out, &recs[i])
		}
	}
	return out
}

// summarize prints the window's latency summaries for the text report.
func summarize(p *pass) {
	var lat []float64
	phases := map[string]int{}
	for _, r := range okQueries(p.queries) {
		lat = append(lat, r.latencyMs())
		phases[r.resp.Stats.Phase]++
	}
	fmt.Println(describe("query_ms", lat), "phases", phases)
	var alat []float64
	for _, a := range ackedAppends(p.appends) {
		alat = append(alat, a.latencyMs())
	}
	fmt.Println(describe("append_ms", alat))
}

// report prints the metrics, one per line, before the JSON.
func report(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
