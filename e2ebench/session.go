package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// client talks to the in-process server over its loopback listener.
type client struct {
	http  *http.Client
	base  string
	table string
}

func newClient(addr, table string) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base:  "http://" + addr,
		table: table,
	}
}

// post sends a JSON body and returns the status and the response body,
// read in full. Callers encode before and decode after taking their
// timestamps, so a latency never includes the client's own JSON work.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return resp.StatusCode, payload, err
}

// decode unmarshals a 200 answer into out; any other status leaves out
// untouched.
func decode(status int, payload []byte, err error, out any) (int, error) {
	if err != nil || status != http.StatusOK {
		return status, err
	}
	return status, json.Unmarshal(payload, out)
}

func (c *client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(payload))
	}
	if s, ok := out.(*string); ok {
		*s = string(payload)
		return nil
	}
	return json.Unmarshal(payload, out)
}

// queryRecord is one reader request as sent and answered. Offsets are
// from the start of the window.
type queryRecord struct {
	q          readQuery
	session    int
	sent, done time.Duration
	status     int
	err        error
	traced     bool
	resp       answer
}

// answer is a query response with its span tree, if traced, decoded
// into the benchmark's span type.
type answer struct {
	server.QueryResponse
	Trace *struct {
		Root *span `json:"root"`
	} `json:"trace"`
}

func (r *queryRecord) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r *queryRecord) latencyMs() float64 { return float64(r.done-r.sent) / 1e6 }

// appendRecord is one writer batch.
type appendRecord struct {
	first      int64
	sent, done time.Duration
	status     int
	err        error
	resp       server.AppendResponse
}

func (r *appendRecord) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r *appendRecord) latencyMs() float64 { return float64(r.done-r.sent) / 1e6 }

// ask sends one reader query and records it, with offsets from start.
func (c *client) ask(q readQuery, session int, traced bool, start time.Time) queryRecord {
	rec := queryRecord{q: q, session: session, traced: traced}
	path := "/tables/" + c.table + "/query"
	if traced {
		path += "?trace=1"
	}
	body, err := json.Marshal(q.wire)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.sent = time.Since(start)
	status, payload, err := c.post(path, body)
	rec.done = time.Since(start)
	rec.status, rec.err = decode(status, payload, err, &rec.resp)
	return rec
}

// readers runs n closed-loop reader sessions from start until stop:
// each sends its next query as soon as the previous answer arrives, with
// no think time and no retries. traced(i) says whether a session's i-th
// query asks for its span tree; bounded is passed to nextQuery.
func readers(c *client, w workload, seed int64, n int, start, stop time.Time, bounded bool, traced func(i int) bool) []queryRecord {
	per := make([][]queryRecord, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(s)))
			for i := 0; time.Now().Before(stop); i++ {
				per[s] = append(per[s], c.ask(w.nextQuery(rng, bounded), s, traced(i), start))
			}
		}(s)
	}
	wg.Wait()
	var all []queryRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all
}

// coldStart is one analyst on a freshly loaded table: a single session
// querying in a closed loop, opening with the workload's openingQuery,
// until the first answer whose phase is done or until limit has passed;
// it always sends the opening query.
func coldStart(c *client, w workload, seed int64, limit time.Duration) []queryRecord {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	var recs []queryRecord
	q := w.openingQuery()
	for {
		rec := c.ask(q, 0, false, start)
		recs = append(recs, rec)
		if rec.ok() && rec.resp.Stats.Phase == "done" || time.Since(start) >= limit {
			return recs
		}
		q = w.nextQuery(rng, false)
	}
}

// writer runs one closed-loop writer session from start until stop,
// appending appendBatch consecutive values per request from the
// workload's writer base. A failed batch is not retried; the next one
// continues where the last acknowledged batch ended, so the acked rows
// stay one contiguous range.
func writer(c *client, w workload, start, stop time.Time) []appendRecord {
	var recs []appendRecord
	next := w.writerBase()
	for time.Now().Before(stop) {
		rec := appendRecord{first: next}
		body, err := json.Marshal(w.appendRequest(next))
		if err != nil {
			rec.err = err
			recs = append(recs, rec)
			break
		}
		rec.sent = time.Since(start)
		status, payload, err := c.post("/tables/"+c.table+"/append", body)
		rec.done = time.Since(start)
		rec.status, rec.err = decode(status, payload, err, &rec.resp)
		if rec.ok() {
			next += appendBatch
		}
		recs = append(recs, rec)
	}
	return recs
}
