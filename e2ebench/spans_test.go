package main

import (
	"encoding/json"
	"testing"
)

func sp(name string, start, dur int64, children ...*span) *span {
	return &span{Name: name, StartMicros: start, DurMicros: dur, Children: children}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *span
		want int64
	}{
		{"no children", sp("execute", 0, 100), 100},
		{"disjoint children", sp("execute", 0, 100, sp("a", 10, 20), sp("b", 50, 30)), 50},
		// Parallel shard spans over the same wall time count once.
		{"overlapping children", sp("fanout", 0, 100, sp("shard", 10, 40), sp("shard", 20, 40), sp("shard", 30, 10)), 50},
		{"nested overlap chain", sp("fanout", 0, 100, sp("a", 0, 30), sp("b", 25, 30), sp("c", 50, 10)), 40},
		{"identical children", sp("fanout", 0, 100, sp("a", 10, 80), sp("b", 10, 80)), 20},
		// A child starting before or ending after its parent is clipped.
		{"child outside parent", sp("root", 100, 100, sp("queue_wait", 90, 30), sp("x", 190, 50)), 70},
		{"zero-length children", sp("execute", 0, 100, sp("plan", 100, 0), sp("plan", 40, 0)), 100},
	} {
		if got := selfMicros(tc.s); got != tc.want {
			t.Errorf("%s: self %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestReconciliation(t *testing.T) {
	ok := sp("query", 0, 1000, sp("queue_wait", -5, 205), sp("wal_sync", 200, 100), sp("execute", 300, 695, sp("index", 310, 600)))
	var r reconciliation
	r.add(ok, 1200)
	if err := r.err(); err != nil {
		t.Fatalf("consistent trace: %v", err)
	}
	if got := r.unattributed(); got != 0.005 {
		t.Errorf("unattributed %v, want 0.005", got)
	}

	overlapping := sp("query", 0, 1000, sp("queue_wait", 0, 600), sp("execute", 400, 600))
	r = reconciliation{}
	r.add(overlapping, 1200)
	if r.err() == nil {
		t.Error("overlapping stages passed")
	}

	r = reconciliation{}
	r.add(ok, 900)
	if r.err() == nil {
		t.Error("root longer than the round trip passed")
	}

	gappy := sp("query", 0, 1000, sp("queue_wait", 0, 100), sp("execute", 500, 400))
	r = reconciliation{}
	r.add(gappy, 1200)
	if r.err() == nil {
		t.Error("half the root unattributed passed")
	}

	if (&reconciliation{}).err() == nil {
		t.Error("no traces passed")
	}
}

func TestSpanDecodesTheServerWireForm(t *testing.T) {
	// The shape obs.Trace.Tree renders for a sharded query.
	wire := `{"name":"query","start_us":0,"dur_us":900,"children":[
		{"name":"queue_wait","start_us":-3,"dur_us":50},
		{"name":"execute","start_us":60,"dur_us":800,"attrs":{"batch":1},"children":[
			{"name":"shard_fanout","start_us":61,"dur_us":700,"attrs":{"shards":3,"scanned":2,"pruned":1,"tail_hit":false},"children":[
				{"name":"shard","start_us":62,"dur_us":500,"attrs":{"shard":0,"rows":10,"encoding":"forbp","budget_spent_s":0.25,"rows_scanned":10}},
				{"name":"shard","start_us":62,"dur_us":0,"attrs":{"shard":1,"pruned":true,"rows_scanned":0}}]}]}]}`
	var root span
	if err := json.Unmarshal([]byte(wire), &root); err != nil {
		t.Fatal(err)
	}
	fan := root.Children[1].Children[0]
	if fan.Attrs.Shards != 3 || fan.Attrs.prunedCount() != 1 || fan.Attrs.prunedFlag() {
		t.Errorf("fan-out attrs %+v", fan.Attrs)
	}
	kept, pruned := fan.Children[0], fan.Children[1]
	if kept.Attrs.prunedFlag() || !pruned.Attrs.prunedFlag() {
		t.Error("shard pruned flags misread")
	}
	if kept.Attrs.Encoding != "forbp" || kept.Attrs.BudgetSpentS != 0.25 || kept.Attrs.RowsScanned != 10 {
		t.Errorf("shard attrs %+v", kept.Attrs)
	}
	if got := selfMicros(fan); got != 200 {
		t.Errorf("fan-out self %d, want 200", got)
	}
}

func TestCollectSplitsTimeByLayer(t *testing.T) {
	trace := sp("query", 0, 1000,
		sp("queue_wait", 0, 100),
		sp("execute", 100, 900,
			sp("shard_fanout", 110, 800,
				&span{Name: "shard", StartMicros: 120, DurMicros: 300, Attrs: attrs{RowsScanned: 1000, Encoding: "forbp"}},
				&span{Name: "shard", StartMicros: 120, DurMicros: 100, Attrs: attrs{RowsScanned: 1000, Encoding: "raw"}},
				&span{Name: "shard", StartMicros: 120, DurMicros: 0, Attrs: attrs{Pruned: json.RawMessage("true")}}),
			sp("merge", 910, 10)))
	trace.Children[1].Children[0].Attrs = attrs{Shards: 3, Pruned: json.RawMessage("1")}
	rec := &queryRecord{sent: 0, done: 1500 * 1000} // 1.5 ms round trip
	rec.resp.Trace = &struct {
		Root *span `json:"root"`
	}{Root: trace}
	s, err := collect([]*queryRecord{rec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.httpSelf) != 1 || s.httpSelf[0] != 0.5 {
		t.Errorf("http self %v, want [0.5]", s.httpSelf)
	}
	if len(s.straggler) != 1 || s.straggler[0] != 1.5 {
		t.Errorf("straggler %v, want [1.5] (slowest 300us over median 200us)", s.straggler)
	}
	if s.shardsPruned != 1 || s.shardsTotal != 3 {
		t.Errorf("pruned %v of %v shards, want 1 of 3", s.shardsPruned, s.shardsTotal)
	}
	if s.packedNs != 300e3 || s.packedR != 1000 {
		t.Errorf("packed scan %v ns over %v rows, want 300000 over 1000", s.packedNs, s.packedR)
	}
	if s.rowsScanned != 2000 {
		t.Errorf("rows scanned %v, want 2000", s.rowsScanned)
	}
	if err := s.recon.err(); err != nil {
		t.Errorf("reconciliation: %v", err)
	}
}
