// Package server is the surfknn HTTP front end: one handler chain that
// routes, decodes, validates, compiles SKQL, caches and writes envelopes for
// the public API, over a small Backend interface. It is built only on the
// standard library (net/http, encoding/json).
//
// Two backends answer through it:
//
//   - the local engine (New): one core.TerrainDB. The terrain structures
//     are immutable and the object set is versioned by an epoch-based store
//     (internal/objstore), so per-request execution state lives in pooled
//     core.Sessions, each query pinning one object epoch for its whole run.
//     Admission control bounds concurrent execution: a semaphore, a bounded
//     wait queue, and a fast 429 + Retry-After beyond that (admission.go).
//     The local engine also mounts the routes only it can serve: the
//     continuous-query subscriptions (subscribe.go) and the /v1/shard/*
//     fabric a coordinator drives (shard.go).
//   - the scatter-gather coordinator of a sharded fleet (internal/shard),
//     passed to NewFront.
//
// Around the backend sit the pieces every deployment shares:
//
//   - strict body decoding and all parameter validation, so a bad request
//     never reaches a backend (handlers.go);
//   - an LRU result cache keyed by (epoch, canonical query): within one
//     epoch a query maps to one answer forever, and an update makes stale
//     entries unreachable rather than requiring a purge (cache.go);
//   - typed JSON error envelopes: a backend's *api.Error is written
//     verbatim, a context error is a 408, anything else a 500 (errors.go);
//   - panic recovery, request metrics and JSON access logging
//     (middleware.go);
//   - graceful lifecycle: Shutdown stops accepting and drains in-flight
//     requests under a caller-bounded deadline.
//
// Every response carries the object-store epoch it was served against in
// the X-Epoch header. Metrics flow into obs.ServerStats (published by
// skserve and skcoord as the "surfknn_server" expvar group).
package server

import (
	"context"
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/obs"
	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
)

// Config tunes the server. The zero value is production-ready for a small
// deployment; every field has a sensible default.
type Config struct {
	// MaxInFlight bounds concurrently executing queries. Default
	// 2×GOMAXPROCS — queries are CPU-bound with simulated I/O, so a small
	// multiple of the core count keeps the machine busy without thrashing.
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot; beyond it
	// requests are rejected with 429. Default 4×MaxInFlight.
	QueueDepth int
	// QueueWait bounds how long one request may wait in the queue before
	// it is rejected with 429. Default 250ms.
	QueueWait time.Duration
	// DefaultTimeout bounds queries whose request carries no "timeout"
	// field. Default 5s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. Default 30s.
	MaxTimeout time.Duration
	// CacheEntries sizes the LRU result cache; negative disables caching.
	// Default 1024. A coordinator's front end always runs with it off.
	CacheEntries int
	// ShardID names the tile this process serves when it is one shard of a
	// tiled deployment (e.g. "tile-0-1"). Empty for a standalone server.
	// Reported by /v1/healthz so a coordinator can verify topology.
	ShardID string
	// AccessLog receives one JSON line per request when non-nil.
	AccessLog io.Writer
	// Stats receives the server metrics; nil creates a private group.
	// Publishing it (as "surfknn_server") is the caller's choice.
	Stats *obs.ServerStats
	// MaxSubscriptions bounds the continuous-query subscription table
	// (POST /v1/subscribe); beyond it the least recently used subscription
	// is evicted. Default continuous.DefaultMaxSubscriptions.
	MaxSubscriptions int
	// CoalesceWindow is how long the continuous-query batcher holds a
	// re-evaluation stripe open for overlapping moves to join. Default 0
	// (coalesce only already-concurrent arrivals).
	CoalesceWindow time.Duration
	// ContinuousStats receives the continuous-query metrics; nil creates a
	// private group. Publishing it (as "surfknn_continuous") is the
	// caller's choice.
	ContinuousStats *obs.ContinuousStats
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxInFlight
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 250 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Stats == nil {
		c.Stats = obs.NewServerStats()
	}
	if c.ContinuousStats == nil {
		c.ContinuousStats = obs.NewContinuousStats()
	}
	return c
}

// Backend answers the public API behind the front end. Every request it
// receives has passed decoding and parameter validation. A returned
// *api.Error is written to the client verbatim, a context error becomes a
// 408, and any other error a 500. The uint64 results are the object-store
// epoch the answer was computed against.
type Backend interface {
	// Catalog describes the data to the SKQL planner.
	Catalog() sklang.Catalog
	// Epoch is the current object-store epoch: it scopes cache lookups and
	// stamps X-Epoch on responses that know no better.
	Epoch() uint64
	KNN(ctx context.Context, req api.KNNRequest) (api.Result, uint64, error)
	Range(ctx context.Context, req api.RangeRequest) (api.Result, uint64, error)
	Distance(ctx context.Context, req api.DistanceRequest) (api.DistanceResponse, uint64, error)
	// Query executes a compiled, non-EXPLAIN statement.
	Query(ctx context.Context, plan *sklang.Plan, timeout api.Duration) (api.QueryResponse, uint64, error)
	// Explain executes a compiled statement and returns its annotated plan
	// tree.
	Explain(ctx context.Context, plan *sklang.Plan, timeout api.Duration) (api.PlanNode, uint64, error)
	Upsert(ctx context.Context, req api.UpsertRequest) (api.UpdateResponse, error)
	Delete(ctx context.Context, req api.DeleteRequest) (api.DeleteResponse, error)
	Healthz(ctx context.Context) (api.Healthz, error)
}

// Server is the HTTP front end over one Backend. Create with New (the local
// engine) or NewFront, expose with Handler or Serve, stop with Shutdown.
type Server struct {
	b     Backend
	cfg   Config
	stats *obs.ServerStats
	cache *resultCache

	mux     *http.ServeMux
	handler http.Handler

	logMu sync.Mutex // serialises access-log lines

	mu   sync.Mutex
	http *http.Server // live listener-facing server; nil before Serve
}

// New serves db, which must already have objects installed (SetObjects or
// a snapshot that carried them). The terrain is never mutated; the object
// set is, through the update endpoints, with each batch publishing a new
// epoch in the database's object store.
func New(db *core.TerrainDB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	e := newEngine(db, cfg)
	s := newFront(e, cfg)
	e.mount(s)
	return s
}

// NewFront serves b through the shared front end: the public routes only.
func NewFront(b Backend, cfg Config) *Server {
	return newFront(b, cfg.withDefaults())
}

func newFront(b Backend, cfg Config) *Server {
	s := &Server{
		b:     b,
		cfg:   cfg,
		stats: cfg.Stats,
		cache: newResultCache(cfg.CacheEntries, cfg.Stats),
		mux:   http.NewServeMux(),
	}
	s.handle("POST /v1/query", s.handleQuery)
	s.handle("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /debug/explain", handleExplainConsole)
	s.handle("POST /v1/knn", s.handleKNN)
	s.handle("POST /v1/range", s.handleRange)
	s.handle("POST /v1/distance", s.handleDistance)
	s.handle("POST /v1/objects", s.handleUpsertObjects)
	s.handle("DELETE /v1/objects", s.handleDeleteObjects)
	s.handle("GET /v1/healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.handle("/", func(_ http.ResponseWriter, r *http.Request) error {
		return api.Errorf(http.StatusNotFound, api.CodeNotFound, "no such endpoint %s %s", r.Method, r.URL.Path)
	})
	s.handler = s.instrument(s.mux)
	return s
}

// handle routes pattern to h, writing the error h returns as the response
// (see fail). h writes nothing itself when it fails.
func (s *Server) handle(pattern string, h func(http.ResponseWriter, *http.Request) error) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			s.fail(w, err)
		}
	})
}

// Handler returns the server's full handler chain (routing, admission,
// caching, recovery, logging) for mounting on any http.Server — the
// in-process tests drive it through httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Stats returns the server's metric group.
func (s *Server) Stats() *obs.ServerStats { return s.stats }

// ContinuousStats returns the continuous-query metric group.
func (s *Server) ContinuousStats() *obs.ContinuousStats { return s.cfg.ContinuousStats }

// Serve accepts connections on ln until Shutdown (which makes it return
// http.ErrServerClosed) or a listener error. ReadHeaderTimeout bounds
// slow-loris header dribbling; request bodies are bounded by the JSON
// decoder's field validation plus MaxBytesReader in the handlers.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	s.http = hs
	s.mu.Unlock()
	return hs.Serve(ln)
}

// Shutdown gracefully stops a Serve-ing server: the listener closes
// immediately (new connections are refused), in-flight requests — and the
// query sessions they hold — drain to completion, bounded by ctx's
// deadline. Safe to call before Serve (a no-op) and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// writeJSON emits body (already-marshalled JSON) with the given X-Cache
// disposition.
func writeJSON(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; the query already ran.
	//lint:ignore dropped-error a client gone mid-reply is not a server failure
	_, _ = w.Write(body)
}

// marshalBody renders a response value to the exact bytes that are both
// sent and cached, newline-terminated like json.Encoder output.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
