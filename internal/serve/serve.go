// Package serve implements the tsubame-serve HTTP service: streaming
// NDJSON ingest of failure records into an epoch-snapshot index
// (index.Store) and text query endpoints that replay the analysis CLIs
// over the ingested log.
//
// Contracts, pinned by the package tests and the e2e serve smoke:
//
//   - Query responses are byte-identical to the corresponding CLI run
//     over the same records (both sides assemble their reports with
//     internal/textreport).
//   - A query observes one consistent epoch: ingest running concurrently
//     never tears a response, and a response reflects exactly the
//     records of some completed ingest request.
//   - Ingest is atomic per request: a malformed line or validation
//     failure rejects the whole batch with the offending input line
//     named, and no epoch is published.
//
// Query results are cached per (endpoint, parameters, epoch) with
// singleflight builds; an epoch advance invalidates the whole cache.
// docs/SERVICE.md documents the wire API.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/textreport"
	"repro/internal/trace"
)

// Default resource limits; Config zero values adopt them.
const (
	DefaultMaxBodyBytes = 32 << 20 // per ingest request
	DefaultMaxLineBytes = 1 << 20  // per NDJSON line
)

// Config parameterizes a Server.
type Config struct {
	// System is the machine generation whose failure stream the server
	// ingests; records for any other system are rejected.
	System failures.System
	// MaxBodyBytes caps one ingest request body; larger bodies get 413.
	// 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxLineBytes caps one NDJSON line; longer lines get 413. 0 means
	// DefaultMaxLineBytes.
	MaxLineBytes int
	// Parallelism bounds the analysis worker pool of query handlers
	// (0 = all cores); like the CLIs, it never affects response bytes.
	Parallelism int
	// MaxRecords caps the resident record count; each ingest evicts the
	// oldest records beyond it. 0 means unlimited.
	MaxRecords int
	// MaxAge evicts records older than the newest ingested record's
	// occurrence time minus MaxAge (record time, not wall clock). 0 means
	// unlimited.
	MaxAge time.Duration
}

// Server is the HTTP failure-analytics service. Create with New; serve
// via Handler.
type Server struct {
	cfg   Config
	store *index.Store
	cache queryCache
	mux   *http.ServeMux
}

// New builds a Server with an empty store for cfg.System.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxLineBytes == 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.MaxBodyBytes < 0 || cfg.MaxLineBytes < 0 || cfg.Parallelism < 0 {
		return nil, fmt.Errorf("serve: negative limit in config %+v", cfg)
	}
	store, err := index.NewStoreWithOptions(cfg.System, index.StoreOptions{
		MaxRecords: cfg.MaxRecords,
		MaxAge:     cfg.MaxAge,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{cfg: cfg, store: store}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("GET /v1/digest", s.handleDigest)
	s.mux.HandleFunc("GET /v1/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/fit", s.handleFit)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the underlying epoch store (the serve CLI reads the
// final record count for its run manifest).
func (s *Server) Store() *index.Store { return s.store }

// IngestResponse is the JSON body of a successful ingest request.
type IngestResponse struct {
	// Accepted is the number of records this request added.
	Accepted int `json:"accepted"`
	// Epoch is the sequence number of the snapshot now serving queries.
	Epoch uint64 `json:"epoch"`
	// TotalRecords is the store's resident record count after this
	// request (after retention, when the server is bounded).
	TotalRecords int `json:"total_records"`
	// Evicted is the number of old records retention dropped while
	// committing this request; omitted when nothing was evicted.
	Evicted int `json:"evicted,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleIngest streams NDJSON failure records (the trace wire format,
// one record per line, blank lines skipped) into the store. The whole
// request is one batch: every line parses and validates or nothing is
// committed, and errors name the offending line of this request body.
// On success the new epoch is live before the response is written, so an
// ingest immediately followed by a query sees the ingested records.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	defer obs.StartSpan("serve/ingest").End()
	obs.Add("serve/ingest_requests", 1)

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	sc := bufio.NewScanner(body)
	// The scanner's effective token cap is max(limit, cap(buf)), so the
	// initial buffer must not exceed the configured line limit.
	bufSize := 64 * 1024
	if s.cfg.MaxLineBytes < bufSize {
		bufSize = s.cfg.MaxLineBytes
	}
	sc.Buffer(make([]byte, bufSize), s.cfg.MaxLineBytes)
	// Pre-size from the declared body length: canonical wire lines run
	// ~160 bytes, so this lands within one growth step of the true count
	// instead of walking the whole append ladder. The declared length is
	// client-controlled and MaxBytesReader only enforces the cap while
	// reading, so clamp the hint to the body limit — otherwise a fake
	// Content-Length allocates gigabytes before the first byte arrives.
	var sizeHint int
	if cl := r.ContentLength; cl > 0 {
		if cl > s.cfg.MaxBodyBytes {
			cl = s.cfg.MaxBodyBytes
		}
		sizeHint = int(cl/160) + 1
	}
	records := make([]failures.Failure, 0, sizeHint)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		rec, err := trace.ParseNDJSONRecord(text)
		if err != nil {
			// A body hitting the size cap is truncated mid-line, which
			// parses as garbage; drain to learn whether the real problem
			// is the limit, so the client gets 413 rather than a
			// misleading parse error.
			if overLimit(body) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"request body exceeds the %d-byte ingest limit", s.cfg.MaxBodyBytes)
				return
			}
			writeError(w, http.StatusBadRequest, "ingest line %d: %v", line, err)
			return
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		var maxBytes *http.MaxBytesError
		switch {
		case errors.As(err, &maxBytes):
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte ingest limit", s.cfg.MaxBodyBytes)
		case errors.Is(err, bufio.ErrTooLong):
			writeError(w, http.StatusRequestEntityTooLarge,
				"ingest line %d exceeds the %d-byte line limit", line+1, s.cfg.MaxLineBytes)
		default:
			writeError(w, http.StatusBadRequest, "reading ingest body: %v", err)
		}
		return
	}

	ep, err := s.store.Append(records)
	if err != nil {
		writeError(w, http.StatusBadRequest, "ingest batch rejected: %v", err)
		return
	}
	obs.Add("serve/ingested_records", int64(len(records)))
	resp := IngestResponse{
		Accepted:     len(records),
		Epoch:        ep.Seq(),
		TotalRecords: ep.View().Len(),
	}
	if len(records) > 0 {
		// An empty batch returns the prior epoch, whose eviction count
		// belongs to the request that created it.
		resp.Evicted = ep.Evicted()
	}
	writeJSON(w, http.StatusOK, resp)
}

// overLimit reports whether reading the rest of r (an
// http.MaxBytesReader) runs into the request-size cap. The drain is
// bounded by the cap itself.
func overLimit(r io.Reader) bool {
	_, err := io.Copy(io.Discard, r)
	var maxBytes *http.MaxBytesError
	return errors.As(err, &maxBytes)
}

// queryCache memoizes query responses per (endpoint+params, epoch).
// Entries build once (singleflight: concurrent identical queries share
// one computation) and an epoch advance drops the whole map — results
// for a superseded epoch are never served to a request that snapshotted
// the newer one.
type queryCache struct {
	mu      sync.Mutex
	seq     uint64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once   sync.Once
	status int
	body   []byte
}

// entryFor returns the (possibly new) cache slot for key at epoch seq,
// or nil when seq is older than the cache generation — a reader that
// snapshotted just before an epoch advance computes uncached rather
// than polluting the new generation with stale bytes.
func (c *queryCache) entryFor(seq uint64, key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq > c.seq || c.entries == nil {
		// Dropping the superseded generation wholesale is what keeps the
		// cache bounded by the distinct queries of ONE epoch under
		// sustained ingest (cache_test.go pins this); the counter makes
		// the churn observable.
		if n := len(c.entries); n > 0 {
			obs.Add("serve/cache_evictions", int64(n))
		}
		c.seq = seq
		c.entries = make(map[string]*cacheEntry)
	} else if seq < c.seq {
		return nil
	}
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	return e
}

// respond serves one query: snapshot an epoch, resolve the response
// through the cache (building at most once per epoch), and write it.
// build returns the status and body for the snapshot's view; it runs
// without the cache lock held.
func (s *Server) respond(w http.ResponseWriter, endpoint, key string, build func(ep *index.Epoch) (int, []byte)) {
	defer obs.StartSpan("serve/query/" + endpoint).End()
	obs.Add("serve/query_requests", 1)

	ep := s.store.Snapshot()
	entry := s.cache.entryFor(ep.Seq(), key)
	if entry == nil {
		status, bodyBytes := build(ep)
		writeReport(w, status, bodyBytes)
		return
	}
	hit := true
	entry.once.Do(func() {
		hit = false
		entry.status, entry.body = build(ep)
	})
	if hit {
		obs.Add("serve/cache_hits", 1)
	} else {
		obs.Add("serve/cache_misses", 1)
	}
	writeReport(w, entry.status, entry.body)
}

// writeReport writes a cached query result: plain text on success (the
// bytes the CLI would have printed), the already-encoded JSON error
// otherwise.
func writeReport(w http.ResponseWriter, status int, body []byte) {
	if status == http.StatusOK {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	w.Write(body)
}

// errorBody encodes the JSON error payload used inside cached builds.
func errorBody(format string, args ...any) []byte {
	body, _ := json.Marshal(errorResponse{Error: fmt.Sprintf(format, args...)})
	return append(body, '\n')
}

// handleAnalyze serves the tsubame-analyze report of the current epoch.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.respond(w, "analyze", "analyze", func(ep *index.Epoch) (int, []byte) {
		study, err := core.RunView(ep.View(), core.Options{Parallelism: s.cfg.Parallelism})
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody("analyze: %v", err)
		}
		var buf bytes.Buffer
		textreport.AnalyzeView(&buf, study, ep.View())
		return http.StatusOK, buf.Bytes()
	})
}

// handleDigest serves the tsubame-digest report. Parameters: days
// (period length, default 30) and from (YYYY-MM-DD period start,
// default days before the ingested log's end).
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	days := 30
	if v := r.URL.Query().Get("days"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad days %q: want a positive integer", v)
			return
		}
		days = n
	}
	fromStr := r.URL.Query().Get("from")
	var from time.Time
	if fromStr != "" {
		var err error
		if from, err = time.Parse("2006-01-02", fromStr); err != nil {
			writeError(w, http.StatusBadRequest, "bad from: %v", err)
			return
		}
	}
	key := fmt.Sprintf("digest?days=%d&from=%s", days, fromStr)
	s.respond(w, "digest", key, func(ep *index.Epoch) (int, []byte) {
		log := ep.View().Log()
		start := from
		if fromStr == "" {
			start = textreport.DefaultDigestFrom(log, days)
		}
		var buf bytes.Buffer
		if _, err := textreport.Digest(&buf, log, start, days); err != nil {
			return http.StatusUnprocessableEntity, errorBody("digest: %v", err)
		}
		return http.StatusOK, buf.Bytes()
	})
}

// handleDiff serves the tsubame-diff report over the ingested log in
// single-log mode. Parameters: split (YYYY-MM-DD split date, default
// the record midpoint) and alpha (significance level, default 0.05).
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	alpha := 0.05
	if v := r.URL.Query().Get("alpha"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f >= 1 {
			writeError(w, http.StatusBadRequest, "bad alpha %q: want a fraction in (0, 1)", v)
			return
		}
		alpha = f
	}
	splitStr := r.URL.Query().Get("split")
	var split time.Time
	if splitStr != "" {
		var err error
		if split, err = time.Parse("2006-01-02", splitStr); err != nil {
			writeError(w, http.StatusBadRequest, "bad split: %v", err)
			return
		}
	}
	key := fmt.Sprintf("diff?alpha=%g&split=%s", alpha, splitStr)
	s.respond(w, "diff", key, func(ep *index.Epoch) (int, []byte) {
		log := ep.View().Log()
		var before, after *failures.Log
		if splitStr == "" {
			before, after = log.SplitFraction(0.5)
		} else {
			before, after = log.SplitAt(split)
		}
		d, err := core.DiffPeriods(before, after)
		if err != nil {
			return http.StatusUnprocessableEntity, errorBody("diff: %v", err)
		}
		var buf bytes.Buffer
		textreport.Diff(&buf, log.System(), d, alpha)
		return http.StatusOK, buf.Bytes()
	})
}

// handleFit serves the tsubame-fit report. Parameter: min (minimum
// records for a per-category fit, default 10).
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	min := 10
	if v := r.URL.Query().Get("min"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad min %q: want a positive integer", v)
			return
		}
		min = n
	}
	key := fmt.Sprintf("fit?min=%d", min)
	s.respond(w, "fit", key, func(ep *index.Epoch) (int, []byte) {
		var buf bytes.Buffer
		textreport.Fit(&buf, ep.View().Log(), min, s.cfg.Parallelism)
		return http.StatusOK, buf.Bytes()
	})
}

// StatusResponse is the JSON body of /v1/status.
type StatusResponse struct {
	System  string `json:"system"`
	Epoch   uint64 `json:"epoch"`
	Records int    `json:"records"`
	// Window bounds are RFC 3339 occurrence times of the first and last
	// ingested failures; both empty while the store is empty.
	WindowStart string `json:"window_start,omitempty"`
	WindowEnd   string `json:"window_end,omitempty"`
}

// handleStatus reports the store's current epoch. Uncached: it is a few
// loads, and operators poll it to watch ingest progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	defer obs.StartSpan("serve/query/status").End()
	ep := s.store.Snapshot()
	resp := StatusResponse{
		System:  s.store.System().String(),
		Epoch:   ep.Seq(),
		Records: ep.View().Len(),
	}
	if start, end, ok := ep.View().Window(); ok {
		resp.WindowStart = start.Format(time.RFC3339Nano)
		resp.WindowEnd = end.Format(time.RFC3339Nano)
	}
	writeJSON(w, http.StatusOK, resp)
}
