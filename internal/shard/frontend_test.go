package shard

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"surfknn/internal/server"
	"surfknn/internal/server/api"
)

// call drives one request through h and decodes the error envelope.
func call(t *testing.T, h http.Handler, method, path, body string) (int, api.ErrorBody) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	var env api.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s %s: body is not an error envelope: %v\n%s", method, path, err, w.Body.String())
	}
	return w.Code, env.Error
}

// TestFrontEndConformance runs one table of refusals against a standalone
// server and a 2×2 coordinator cut from the same database: both answer
// through the shared front end, so status, code, message and SKQL position
// must match exactly. Every 400 is decided before the coordinator makes a
// single shard call.
func TestFrontEndConformance(t *testing.T) {
	db := buildSourceDB(t)
	local := server.New(db, server.Config{}).Handler()
	f := startFleet(t, db, 2, 2)
	coord := f.coord.Handler()
	stats := f.coord.Stats()

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		// TestValidation's table.
		{"malformed json", "POST", "/v1/knn", `{"x":`, 400, "bad_request"},
		{"missing k", "POST", "/v1/knn", `{"x":800,"y":800}`, 400, "bad_request"},
		{"k too large", "POST", "/v1/knn", `{"x":800,"y":800,"k":2000000}`, 400, "bad_request"},
		{"bad sched", "POST", "/v1/knn", `{"x":800,"y":800,"k":3,"sched":7}`, 400, "bad_request"},
		{"unknown field", "POST", "/v1/knn", `{"x":800,"y":800,"k":3,"radius":5}`, 400, "bad_request"},
		{"trailing data", "POST", "/v1/knn", `{"x":800,"y":800,"k":3}{"again":1}`, 400, "bad_request"},
		{"bad option fraction", "POST", "/v1/knn", `{"x":800,"y":800,"k":3,"options":{"step2_accuracy":1.5}}`, 400, "bad_request"},
		{"numeric timeout", "POST", "/v1/knn", `{"x":800,"y":800,"k":3,"timeout":5}`, 400, "bad_request"},
		{"off-terrain point", "POST", "/v1/knn", `{"x":-1e6,"y":0,"k":3}`, 404, "not_found"},
		{"bad radius", "POST", "/v1/range", `{"x":800,"y":800,"radius":-5}`, 400, "bad_request"},
		{"bad accuracy", "POST", "/v1/distance", `{"x":800,"y":800,"x2":200,"y2":300,"accuracy":2}`, 400, "bad_request"},
		// The rest of the shared surface.
		{"range bad sched", "POST", "/v1/range", `{"x":800,"y":800,"radius":50,"sched":7}`, 400, "bad_request"},
		{"empty upsert", "POST", "/v1/objects", `{"objects":[]}`, 400, "bad_request"},
		{"unknown route", "POST", "/v1/nope", `{}`, 404, "not_found"},
		{"skql parse error", "POST", "/v1/query", `{"q":"SELECT k=5 NEAREST (800"}`, 400, "bad_request"},
		{"explain on query route", "POST", "/v1/query", `{"q":"EXPLAIN SELECT k=3 NEAREST (800, 800)"}`, 400, "bad_request"},
		{"skql k too large", "POST", "/v1/query", `{"q":"SELECT k=2000000 NEAREST (800, 800)"}`, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ls, le := call(t, local, tc.method, tc.path, tc.body)
			calls := stats.ShardCalls.Value()
			cs, ce := call(t, coord, tc.method, tc.path, tc.body)
			if ls != tc.status || le.Code != tc.code {
				t.Fatalf("server: %d %s, want %d %s (%s)", ls, le.Code, tc.status, tc.code, le.Message)
			}
			if cs != ls {
				t.Errorf("coordinator status %d, server %d (%s)", cs, ls, ce.Message)
			}
			if ce.Code != le.Code || ce.Message != le.Message {
				t.Errorf("coordinator %s %q, server %s %q", ce.Code, ce.Message, le.Code, le.Message)
			}
			if ce.Line != le.Line || ce.Col != le.Col || ce.Token != le.Token {
				t.Errorf("coordinator position %d:%d %q, server %d:%d %q",
					ce.Line, ce.Col, ce.Token, le.Line, le.Col, le.Token)
			}
			if got := stats.ShardCalls.Value() - calls; tc.status == http.StatusBadRequest && got != 0 {
				t.Errorf("a 400 cost the coordinator %d shard calls, want 0", got)
			}
		})
	}
}

// TestShardVerdictRelayed pins that a shard's own 4xx refusal is the
// coordinator's answer, not a fleet outage: an off-terrain point answers
// 404 not_found with the shard's message on the typed route, the SKQL
// route and the distance fallback loop, and neither ShardErrors nor
// Degraded moves.
func TestShardVerdictRelayed(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 2)
	coord := f.coord.Handler()
	stats := f.coord.Stats()

	for _, tc := range []struct{ name, path, body string }{
		{"knn", "/v1/knn", `{"x":-1e6,"y":0,"k":3}`},
		{"skql", "/v1/query", `{"q":"SELECT k=3 NEAREST (-1e6, 0)"}`},
		{"distance", "/v1/distance", `{"x":-1e6,"y":0,"x2":200,"y2":300}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			degraded, shardErrs := stats.Degraded.Value(), stats.ShardErrors.Value()
			status, body := call(t, coord, "POST", tc.path, tc.body)
			if status != http.StatusNotFound || body.Code != api.CodeNotFound {
				t.Fatalf("status %d code %s (%s), want 404 not_found", status, body.Code, body.Message)
			}
			if !strings.HasPrefix(body.Message, "point (-1e+06, 0) is not on the terrain") {
				t.Errorf("message %q is not the shard's off-terrain verdict", body.Message)
			}
			if got := stats.Degraded.Value() - degraded; got != 0 {
				t.Errorf("Degraded moved by %d", got)
			}
			if got := stats.ShardErrors.Value() - shardErrs; got != 0 {
				t.Errorf("ShardErrors moved by %d", got)
			}
		})
	}
}
