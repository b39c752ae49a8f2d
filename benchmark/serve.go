package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/textreport"
	"repro/internal/trace"
)

const (
	tailBatch      = 512                    // records per tail ingest, one per second
	queryEvery     = 100 * time.Millisecond // 10 queries per second
	sloLatency     = 250 * time.Millisecond // a query within this of its due time meets the SLO
	maxGenLag      = 10 * time.Millisecond  // generator lag p99 beyond this makes the run invalid
	serveConns     = 2                      // keep-alive connections, one per core
	queryDeckSize  = 40
	requestTimeout = time.Minute
)

// queryDeck is the fixed query mix per 40 queries: digest 50%, status
// 32.5%, diff 10%, analyze 5%, fit 2.5%, interleaved by smooth weighted
// round robin so each endpoint's queries are evenly spread. Every four
// seconds repeat it.
var queryDeck = func() []string {
	mix := []struct {
		endpoint      string
		weight, score int
	}{{"digest", 20, 0}, {"status", 13, 0}, {"diff", 4, 0}, {"analyze", 2, 0}, {"fit", 1, 0}}
	deck := make([]string, 0, queryDeckSize)
	for range queryDeckSize {
		best := 0
		for i := range mix {
			mix[i].score += mix[i].weight
			if mix[i].score > mix[best].score {
				best = i
			}
		}
		mix[best].score -= queryDeckSize
		deck = append(deck, mix[best].endpoint)
	}
	return deck
}()

var queryPaths = map[string]string{
	"digest":  "/v1/digest?days=30",
	"status":  "/v1/status",
	"diff":    "/v1/diff",
	"analyze": "/v1/analyze",
	"fit":     "/v1/fit",
}

// serveEndpoints are the endpoints with per-layer latency metrics.
var serveEndpoints = []string{"analyze", "fit", "diff", "digest", "status", "ingest"}

// serveLive is the live-monitoring workload: an open loop of tail
// ingests and a fixed query mix against one tsubame-serve process that
// retains the newest 100,048 records.
type serveLive struct {
	e        *env
	records  int
	srv      *server
	seedLog  *failures.Log
	seedBody []byte
	batches  [][]failures.Failure // tail batches, in ingest order
	bodies   [][]byte             // their NDJSON
	sent     int                  // batches ingested by the server so far

	events  []*event
	backlog int
	cache   [2]float64 // hits, misses from /debug/vars
	server  proc

	// replay state: an in-process store fed the same batches.
	store   *index.Store
	replays int
}

// event is one scheduled request of the open loop.
type event struct {
	endpoint string
	batch    int // index into bodies, for ingests
	due      time.Time
	lag      time.Duration // generator wake-up after due
	latency  time.Duration // response complete after due
	ok       bool
}

func newServeLive(e *env) workload { return &serveLive{e: e} }

func (w *serveLive) setup(ctx context.Context) error {
	e := w.e
	profile, err := e.writeScaledProfile(ctx, e.scale.logFactor, e.path("profile.json"))
	if err != nil {
		return err
	}
	w.records = profile.TotalFailures()
	seedPath := e.path("seed.ndjson")
	if _, err := e.run(ctx, io.Discard, "tsubame-gen", "-profile", e.path("profile.json"),
		"-seed", fmt.Sprint(e.seed), "-out", seedPath); err != nil {
		return err
	}
	body, err := os.ReadFile(seedPath)
	if err != nil {
		return err
	}
	seedLog, err := trace.ReadNDJSON(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("reading the seed log: %w", err)
	}
	w.seedLog, w.seedBody = seedLog, body
	if err := w.prepareBatches(); err != nil {
		return err
	}
	if e.traced {
		if err := w.seedReplayStore(); err != nil {
			return err
		}
	}

	if w.srv, err = e.startServer(ctx, w.records, e.traced); err != nil {
		return e.tally.record(err)
	}
	w.sent = 0
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	resp, err := ingest(ctx, client, w.srv.addr, body)
	if err == nil && (resp.Accepted != w.records || resp.Evicted != 0) {
		err = fmt.Errorf("seed ingest: accepted %d evicted %d, want %d and 0", resp.Accepted, resp.Evicted, w.records)
	}
	return e.tally.record(err)
}

// seedReplayStore gives the replay its own store holding the seed log,
// ingested as the handler does.
func (w *serveLive) seedReplayStore() error {
	store, err := index.NewStoreWithOptions(failures.Tsubame3, index.StoreOptions{MaxRecords: w.records})
	if err != nil {
		return err
	}
	recs, err := parseNDJSON(w.seedBody)
	if err != nil {
		return err
	}
	if _, err := store.Append(recs); err != nil {
		return err
	}
	w.store, w.replays = store, 0
	return nil
}

// prepareBatches renders enough tail batches for the run: copies of the
// seed log's records, in order, moved past its end and given fresh IDs.
func (w *serveLive) prepareBatches() error {
	// One batch per measured second, plus the replay's, which never
	// outnumber them.
	n := 2*int(w.e.seconds/time.Second) + 2
	src := w.seedLog
	start, end, _ := src.Window()
	shift := end.Sub(start) + time.Hour
	maxID := 0
	for i := range src.Len() {
		maxID = max(maxID, src.At(i).ID)
	}
	w.batches, w.bodies = nil, nil
	for b := range n {
		recs := make([]failures.Failure, tailBatch)
		for i := range recs {
			g := b*tailBatch + i
			r := src.At(g % src.Len())
			r.Time = r.Time.Add(time.Duration(1+g/src.Len()) * shift)
			r.ID = maxID + 1 + g
			recs[i] = r
		}
		batch, err := failures.NewLog(failures.Tsubame3, recs)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := trace.WriteNDJSON(&buf, batch); err != nil {
			return err
		}
		w.batches = append(w.batches, recs)
		w.bodies = append(w.bodies, buf.Bytes())
	}
	return nil
}

func (w *serveLive) close() error {
	if w.srv == nil {
		return nil
	}
	p, err := w.srv.stop()
	w.srv = nil
	w.server = p
	return err
}

// schedule lays out the open loop's requests over [start, start+d): a
// tail ingest at every whole second and, offset by half a period, a
// query every 100 ms, cycling through the deck.
func (w *serveLive) schedule(start time.Time, d time.Duration) []*event {
	var events []*event
	batch := w.sent
	for i, at := 0, time.Duration(0); at < d; i, at = i+1, at+queryEvery {
		if at%time.Second == 0 {
			events = append(events, &event{endpoint: "ingest", batch: batch, due: start.Add(at)})
			batch++
		}
		events = append(events, &event{endpoint: queryDeck[i%len(queryDeck)], due: start.Add(at + queryEvery/2)})
	}
	return events
}

func (w *serveLive) measure(ctx context.Context, until time.Time) error {
	start := time.Now().Add(100 * time.Millisecond).Truncate(time.Millisecond)
	events := w.schedule(start, until.Sub(start))
	queue := make(chan *event, len(events)) // every event fits: the generator never blocks
	var dispatched, completed atomic.Int64

	var wg sync.WaitGroup
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   requestTimeout,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			}
			for ev := range queue {
				ev.ok = w.do(ctx, client, ev)
				ev.latency = time.Since(ev.due)
				completed.Add(1)
			}
			client.CloseIdleConnections()
		}()
	}
	for _, ev := range events {
		select {
		case <-time.After(time.Until(ev.due)):
		case <-ctx.Done():
		}
		ev.lag = time.Since(ev.due)
		dispatched.Add(1)
		queue <- ev
	}
	close(queue)
	time.Sleep(time.Until(until))
	w.backlog = int(dispatched.Load() - completed.Load())
	wg.Wait()
	for _, ev := range events {
		if ev.endpoint == "ingest" {
			w.sent++
		}
	}
	w.events = append(w.events, events...)
	return ctx.Err()
}

// do sends one scheduled request and checks its answer.
func (w *serveLive) do(ctx context.Context, client *http.Client, ev *event) bool {
	var err error
	if ev.endpoint == "ingest" {
		var resp ingestResponse
		resp, err = ingest(ctx, client, w.srv.addr, w.bodies[ev.batch])
		if err == nil && (resp.Accepted != tailBatch || resp.Evicted != tailBatch) {
			err = fmt.Errorf("tail ingest: accepted %d evicted %d, want %d and %d", resp.Accepted, resp.Evicted, tailBatch, tailBatch)
		}
	} else {
		_, err = get(ctx, client, "http://"+w.srv.addr+queryPaths[ev.endpoint])
	}
	return w.e.tally.record(err) == nil
}

type ingestResponse struct {
	Accepted int `json:"accepted"`
	Evicted  int `json:"evicted"`
}

func ingest(ctx context.Context, client *http.Client, addr string, body []byte) (ingestResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return ingestResponse{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	data, err := send(client, req)
	if err != nil {
		return ingestResponse{}, err
	}
	var resp ingestResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return ingestResponse{}, fmt.Errorf("ingest response: %w", err)
	}
	return resp, nil
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return send(client, req)
}

// send performs req and returns the body of a 200 response.
func send(client *http.Client, req *http.Request) ([]byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// verify checks generator honesty, reads the cache counters of a traced
// server, and compares the final /v1/analyze with an in-process analysis
// of the same retained records.
func (w *serveLive) verify(ctx context.Context) error {
	e := w.e
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	if e.traced {
		if err := w.readCacheCounters(ctx, client); err != nil {
			return e.tally.record(err)
		}
	}
	body, err := get(ctx, client, "http://"+w.srv.addr+"/v1/analyze")
	if e.tally.record(err) != nil {
		return err
	}
	want, err := w.retainedAnalyze()
	if err != nil {
		return err
	}
	e.check(bytes.Equal(body, want), "final /v1/analyze differs from the in-process analysis of the retained %d records", w.records)
	if lag := percentile(w.lagsMS(), 0.99); lag > float64(maxGenLag)/1e6 {
		return fmt.Errorf("%w: generator lag p99 %.2f ms exceeds %v; backlog at run end %d", errInvalid, lag, maxGenLag, w.backlog)
	}
	return nil
}

// retainedAnalyze renders the analyze report over what the server must
// hold: the seed log plus every ingested tail batch, minus the oldest
// records retention evicted.
func (w *serveLive) retainedAnalyze() ([]byte, error) {
	all := append([]failures.Failure(nil), w.seedLog.Records()...)
	for _, batch := range w.batches[:w.sent] {
		all = append(all, batch...)
	}
	log, err := failures.NewLog(failures.Tsubame3, all)
	if err != nil {
		return nil, err
	}
	log = log.DropFirst(log.Len() - w.records)
	study, err := core.RunView(index.New(log), core.Options{Parallelism: 2})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	textreport.Analyze(&buf, study, log)
	return buf.Bytes(), nil
}

func (w *serveLive) readCacheCounters(ctx context.Context, client *http.Client) error {
	data, err := get(ctx, client, "http://"+w.srv.debug+"/debug/vars")
	if err != nil {
		return err
	}
	var vars struct {
		Tsubame struct {
			Counters map[string]float64 `json:"counters"`
		} `json:"tsubame"`
	}
	if err := json.Unmarshal(data, &vars); err != nil {
		return fmt.Errorf("/debug/vars: %w", err)
	}
	w.cache = [2]float64{vars.Tsubame.Counters["serve/cache_hits"], vars.Tsubame.Counters["serve/cache_misses"]}
	return nil
}

func (w *serveLive) lagsMS() []float64 {
	out := make([]float64, len(w.events))
	for i, ev := range w.events {
		out[i] = float64(ev.lag.Nanoseconds()) / 1e6
	}
	return out
}

// latenciesMS returns the latencies of the named endpoint's requests, or
// of every query when endpoint is "".
func (w *serveLive) latenciesMS(endpoint string) []float64 {
	var out []float64
	for _, ev := range w.events {
		if ev.endpoint == endpoint || (endpoint == "" && ev.endpoint != "ingest") {
			out = append(out, float64(ev.latency.Nanoseconds())/1e6)
		}
	}
	return out
}

func (w *serveLive) sloFrac() float64 {
	var n, good int
	for _, ev := range w.events {
		if ev.endpoint == "ingest" {
			continue
		}
		n++
		if ev.ok && ev.latency <= sloLatency {
			good++
		}
	}
	return float64(good) / float64(max(n, 1))
}

// replay is one epoch of the server's work in-process: parse and append
// the next tail batch, then compute each cached endpoint once on the new
// epoch, as the first query of each after an ingest does.
func (w *serveLive) replay(tr *tracer, req int) error {
	body := w.bodies[w.replays%len(w.bodies)]
	w.replays++
	root := tr.begin("serve.epoch", -1, req)
	defer tr.end(root)
	var recs []failures.Failure
	var ep *index.Epoch
	err := tr.do("trace.parse_batch", root, req, func() (err error) {
		recs, err = parseNDJSON(body)
		return err
	})
	if err == nil {
		err = tr.do("index.store_append", root, req, func() (err error) {
			ep, err = w.store.Append(recs)
			return err
		})
	}
	if err != nil {
		return err
	}
	log := ep.View().Log()
	if err := tr.do("core.digest_from_log", root, req, func() error {
		_, err := core.DigestFromLog(log, textreport.DefaultDigestFrom(log, 30), 30, core.DigestOptions{})
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("core.diff_periods", root, req, func() error {
		_, err := core.DiffPeriods(log.SplitFraction(0.5))
		return err
	}); err != nil {
		return err
	}
	if _, err := analyzeLayers(tr, root, req, ep.View(), "core.run_view_epoch"); err != nil {
		return err
	}
	fitLayers(tr, root, req, log)
	return nil
}

// parseNDJSON splits an ingest body into records the way the ingest
// handler does: line by line through trace.ParseNDJSONRecord.
func parseNDJSON(body []byte) ([]failures.Failure, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var recs []failures.Failure
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := trace.ParseNDJSONRecord(line)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// endToEnd returns every query, timed from its due time, and the
// server's peak memory. op_s is the queries' mean latency: analyze and
// fit recomputes keep the server busy for about half of each second, so
// the median query falls between the cheap queries that run alone and
// those that share the cores with a recompute.
func (w *serveLive) endToEnd() ops {
	o := ops{meanOp: true}
	for _, ms := range w.latenciesMS("") {
		o.seconds = append(o.seconds, ms/1e3)
	}
	o.rssBytes = []float64{float64(w.server.maxRSS)}
	return o
}

func (w *serveLive) perLayer() map[string]float64 {
	m := map[string]float64{
		"serve.gen_lag_p99_ms": percentile(w.lagsMS(), 0.99),
		"serve.backlog":        float64(w.backlog),
		"serve.slo_frac":       w.sloFrac(),
	}
	for _, ep := range serveEndpoints {
		lat := w.latenciesMS(ep)
		m["serve."+ep+"_p50_ms"] = median(lat)
		m["serve."+ep+"_p99_ms"] = percentile(lat, 0.99)
	}
	if total := w.cache[0] + w.cache[1]; total > 0 {
		m["serve.cache_hit_ratio"] = w.cache[0] / total
	}
	return m
}
