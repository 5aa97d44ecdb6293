package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// Span-tree arithmetic over the trees the server returns on ?trace=1
// requests. Times are the wire form's whole microseconds.

// span is the wire form of one server span (obs.SpanJSON) with the
// attributes the per-layer metrics read decoded into typed fields: a
// query on a table with hundreds of shards carries a span per shard, and
// decoding those into maps would make the client, not the server, the
// traced run's bottleneck.
type span struct {
	Name        string  `json:"name"`
	StartMicros int64   `json:"start_us"`
	DurMicros   int64   `json:"dur_us"`
	Attrs       attrs   `json:"attrs"`
	Children    []*span `json:"children"`
}

// attrs are the span attributes the benchmark reads; absent ones are
// zero.
type attrs struct {
	Phase         string  `json:"phase"`
	BudgetSpentS  float64 `json:"budget_spent_s"`
	RowsScanned   float64 `json:"rows_scanned"`
	Encoding      string  `json:"encoding"`
	Shards        float64 `json:"shards"`
	ScannedBlocks float64 `json:"scanned_blocks"`
	PrunedBlocks  float64 `json:"pruned_blocks"`
	MatchedRows   float64 `json:"matched_rows"`
	ResidualRows  float64 `json:"residual_rows"`
	// Pruned is a flag on a shard span and a count on a shard_fanout.
	Pruned json.RawMessage `json:"pruned"`
}

func (a attrs) prunedFlag() bool { return string(a.Pruned) == "true" }

func (a attrs) prunedCount() float64 {
	v, _ := strconv.ParseFloat(string(a.Pruned), 64)
	return v
}

// spanEnd is the span's end offset from the trace start.
func spanEnd(s *span) int64 { return s.StartMicros + s.DurMicros }

// coveredMicros is the length of the union of the children's intervals,
// clipped to the parent's. Children may overlap — a shard fan-out runs
// its per-shard spans in parallel — so summing their durations would
// count the same wall time more than once.
func coveredMicros(parent *span, children []*span) int64 {
	type interval struct{ lo, hi int64 }
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartMicros, parent.StartMicros), min(spanEnd(c), spanEnd(parent))
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return covered
}

// selfMicros is a span's own time: its duration minus the part of it
// its children cover.
func selfMicros(s *span) int64 {
	return s.DurMicros - coveredMicros(s, s.Children)
}

// walk visits s and every descendant, parents first.
func walk(s *span, visit func(*span)) {
	visit(s)
	for _, c := range s.Children {
		walk(c, visit)
	}
}

// reconciliation checks that the per-layer split accounts for every
// traced request: the root's top-level stages (queue_wait, wal_sync,
// execute) do not overlap and add up to the root, and the root fits inside the client's
// round trip, so root + server.http_self = round trip holds with a
// non-negative HTTP share.
type reconciliation struct {
	traces       int
	rootMicros   int64 // sum of root durations
	stageMicros  int64 // sum of queue_wait + wal_sync + execute
	overRoot     int   // traces whose stages exceed the root
	overRoundTrp int   // traces whose root exceeds the round trip
	first        string
}

// stageTolerance is the share of the summed root time the top-level
// stages may leave unattributed: the scheduler applies appends and
// closes spans between the stages, and every span is truncated to whole
// microseconds.
const stageTolerance = 0.05

// roundingMicros absorbs the truncation of each span to whole
// microseconds when comparing one trace's stages with its root.
const roundingMicros = 3

// add folds one traced request into the check.
func (r *reconciliation) add(root *span, roundTripMicros int64) {
	r.traces++
	// Each stage is clipped to the root: the scheduler stamps a query's
	// admission time just before it creates the trace, so queue_wait can
	// start a little before the root does.
	var stages int64
	for _, c := range root.Children {
		switch c.Name {
		case "queue_wait", "wal_sync", "execute":
			stages += coveredMicros(root, []*span{c})
		}
	}
	r.rootMicros += root.DurMicros
	r.stageMicros += stages
	if stages > root.DurMicros+roundingMicros {
		r.overRoot++
		if r.first == "" {
			r.first = fmt.Sprintf("stages %dus exceed root %dus", stages, root.DurMicros)
		}
	}
	if root.DurMicros > roundTripMicros {
		r.overRoundTrp++
		if r.first == "" {
			r.first = fmt.Sprintf("root %dus exceeds round trip %dus", root.DurMicros, roundTripMicros)
		}
	}
}

// err reports a failed guard, nil when every trace reconciles.
func (r *reconciliation) err() error {
	if r.traces == 0 {
		return fmt.Errorf("reconciliation: no traces")
	}
	if r.overRoot > 0 || r.overRoundTrp > 0 {
		return fmt.Errorf("reconciliation: %d traces with stages over the root, %d with the root over the round trip (first: %s)",
			r.overRoot, r.overRoundTrp, r.first)
	}
	if gap := r.unattributed(); gap > stageTolerance {
		return fmt.Errorf("reconciliation: queue_wait+wal_sync+execute leave %.1f%% of root time unattributed (limit %.0f%%)",
			100*gap, 100*stageTolerance)
	}
	return nil
}

// unattributed is the share of root time no top-level stage covers.
func (r *reconciliation) unattributed() float64 {
	if r.rootMicros == 0 {
		return 0
	}
	return float64(r.rootMicros-r.stageMicros) / float64(r.rootMicros)
}
