package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"surfknn/internal/core"
	"surfknn/internal/server/api"
	"surfknn/internal/sklang/skexec"
)

// The wire shapes themselves live in internal/server/api — the one
// importable definition of every request and response body, shared with the
// typed client and the scatter-gather coordinator. This file is the front
// end's half of the typed routes: decoding, validation, caching and
// response writing. What a query means is the backend's business.

// maxK bounds the k a client may request; anything larger is a typo or an
// attack, not a query.
const maxK = 1 << 20

// maxBodyBytes bounds request bodies for the public routes; every valid
// request is a few hundred bytes.
const maxBodyBytes = 1 << 20

// maxUpdateBatch bounds how many objects one update request may carry.
// Larger batches should be split client-side; one epoch per batch means an
// unbounded batch would also be an unbounded copy-on-write delta.
const maxUpdateBatch = 4096

// decode reads the JSON request body into dst, bounded by limit bytes.
// Unknown fields are errors — a misspelled option silently falling back to
// a default is worse than a 400.
func decode(w http.ResponseWriter, r *http.Request, dst any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after request body")
	}
	return nil
}

// badRequest builds the 400 envelope.
func badRequest(format string, args ...any) *api.Error {
	return api.Errorf(http.StatusBadRequest, api.CodeBadRequest, format, args...)
}

func checkK(k int) error {
	if k < 1 || k > maxK {
		return badRequest("k must be in [1, %d], got %d", maxK, k)
	}
	return nil
}

func checkRadius(r float64) error {
	if !(r > 0) || math.IsInf(r, 1) {
		return badRequest("radius must be a positive finite distance, got %g", r)
	}
	return nil
}

// checkSched resolves the request's schedule number (default 1, matching
// skquery).
func checkSched(n int) (core.Schedule, error) {
	sched, ok := skexec.Schedule(n)
	if !ok {
		return sched, badRequest("sched must be 1, 2 or 3, got %d", n)
	}
	return sched, nil
}

// checkOptions maps the wire options onto core.Options, validating
// fractions. The mapping lives in skexec so the SKQL plan executor and the
// /v1 handlers translate a client's options identically — the /v1/query
// bit-identity guarantee depends on it.
func checkOptions(o *api.Options) (core.Options, error) {
	opt, err := skexec.CoreOptions(o)
	if err != nil {
		return opt, badRequest("invalid options: %v", err)
	}
	return opt, nil
}

// checkQuery validates the parameters every ranked query shares.
func checkQuery(sched int, o *api.Options) (core.Schedule, core.Options, error) {
	s, err := checkSched(sched)
	if err != nil {
		return s, core.Options{}, err
	}
	opt, err := checkOptions(o)
	return s, opt, err
}

// checkBatch bounds an update batch of n entries in the named field.
func checkBatch(n int, field, entry string) error {
	if n == 0 {
		return badRequest("%s must contain at least one %s", field, entry)
	}
	if n > maxUpdateBatch {
		return badRequest("batch of %d %s exceeds the limit of %d", n, field, maxUpdateBatch)
	}
	return nil
}

// optKey canonicalizes options into the cache key. Float fractions are
// keyed by their exact bits; the unset/sentinel encoding is keyed as-is,
// which is canonical because CoreOptions maps each client value to exactly
// one encoding.
func optKey(o core.Options) string {
	return fmt.Sprintf("s2a=%x,ovl=%x,io=%t,dlb=%t,bfl=%t",
		math.Float64bits(o.Step2Accuracy), math.Float64bits(o.OverlapThreshold),
		o.DisableIOIntegration, o.DisableDummyLB, o.BothFamilyLB)
}

// epochKey scopes a cache key to one object-store epoch. Object updates
// therefore never purge the cache: entries computed against a superseded
// epoch simply become unreachable (lookups use the current epoch) and age
// out of the LRU naturally.
func epochKey(epoch uint64, suffix string) string {
	return fmt.Sprintf("e=%d|%s", epoch, suffix)
}

// setEpoch overwrites the middleware's blanket X-Epoch stamp with the
// exact epoch the response was computed against.
func setEpoch(w http.ResponseWriter, epoch uint64) {
	w.Header().Set("X-Epoch", strconv.FormatUint(epoch, 10))
}

// cached serves a cache hit for suffix at the current epoch, reporting
// whether there was one.
func (s *Server) cached(w http.ResponseWriter, suffix string) bool {
	epoch := s.b.Epoch()
	body, ok := s.cache.get(epochKey(epoch, suffix))
	if ok {
		setEpoch(w, epoch)
		writeJSON(w, body, "hit")
	}
	return ok
}

// --- POST /v1/knn ---

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) error {
	var req api.KNNRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkK(req.K); err != nil {
		return err
	}
	sched, opt, err := checkQuery(req.Sched, req.Options)
	if err != nil {
		return err
	}
	suffix := fmt.Sprintf("knn|x=%x|y=%x|k=%d|sched=%s|%s",
		math.Float64bits(req.X), math.Float64bits(req.Y), req.K, sched.Name, optKey(opt))
	if s.cached(w, suffix) {
		return nil
	}
	res, epoch, err := s.b.KNN(r.Context(), req)
	if err != nil {
		return err
	}
	// Cache under the epoch the query actually pinned (an update may have
	// landed between the lookup above and the query).
	setEpoch(w, epoch)
	return s.respond(w, epochKey(epoch, suffix), res)
}

// --- POST /v1/range ---

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) error {
	var req api.RangeRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkRadius(req.Radius); err != nil {
		return err
	}
	sched, opt, err := checkQuery(req.Sched, req.Options)
	if err != nil {
		return err
	}
	suffix := fmt.Sprintf("range|x=%x|y=%x|r=%x|sched=%s|%s",
		math.Float64bits(req.X), math.Float64bits(req.Y), math.Float64bits(req.Radius),
		sched.Name, optKey(opt))
	if s.cached(w, suffix) {
		return nil
	}
	res, epoch, err := s.b.Range(r.Context(), req)
	if err != nil {
		return err
	}
	setEpoch(w, epoch)
	return s.respond(w, epochKey(epoch, suffix), res)
}

// --- POST /v1/distance ---

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) error {
	var req api.DistanceRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if req.Accuracy == 0 {
		req.Accuracy = 0.9
	}
	if !(req.Accuracy > 0 && req.Accuracy <= 1) {
		return badRequest("accuracy must be in (0, 1], got %g", req.Accuracy)
	}
	sched, err := checkSched(req.Sched)
	if err != nil {
		return err
	}

	// Surface distance depends only on the immutable terrain, never on the
	// object set, so the key is deliberately NOT epoch-scoped: entries stay
	// valid (and reachable) across any number of object updates.
	key := fmt.Sprintf("distance|a=%x,%x|b=%x,%x|acc=%x|sched=%s",
		math.Float64bits(req.X), math.Float64bits(req.Y),
		math.Float64bits(req.X2), math.Float64bits(req.Y2),
		math.Float64bits(req.Accuracy), sched.Name)
	if body, ok := s.cache.get(key); ok {
		writeJSON(w, body, "hit")
		return nil
	}
	res, epoch, err := s.b.Distance(r.Context(), req)
	if err != nil {
		return err
	}
	setEpoch(w, epoch)
	return s.respond(w, key, res)
}

// --- POST/DELETE /v1/objects ---

// Updates are never cached and carry no X-Cache header.

func (s *Server) handleUpsertObjects(w http.ResponseWriter, r *http.Request) error {
	var req api.UpsertRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkBatch(len(req.Objects), "objects", "object"); err != nil {
		return err
	}
	res, err := s.b.Upsert(r.Context(), req)
	if err != nil {
		return err
	}
	setEpoch(w, res.Epoch)
	return writeBody(w, res)
}

func (s *Server) handleDeleteObjects(w http.ResponseWriter, r *http.Request) error {
	var req api.DeleteRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkBatch(len(req.IDs), "ids", "object id"); err != nil {
		return err
	}
	res, err := s.b.Delete(r.Context(), req)
	if err != nil {
		return err
	}
	setEpoch(w, res.Epoch)
	return writeBody(w, res)
}

// --- GET /v1/healthz ---

// handleHealthz reports liveness and the backend's shape and provenance,
// plus the front end's own occupancy. The endpoint bypasses admission
// control and the cache: a saturated server is alive, and a health check
// must say so.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	hz, err := s.b.Healthz(r.Context())
	if err != nil {
		return err
	}
	hz.InFlight = s.stats.InFlight.Value()
	hz.CacheEntries = s.cache.len()
	setEpoch(w, hz.Epoch)
	return writeBody(w, hz)
}

// respond marshals, caches and writes a fresh (non-cached) result.
func (s *Server) respond(w http.ResponseWriter, key string, v any) error {
	body, err := marshalBody(v)
	if err != nil {
		return fmt.Errorf("encoding response: %w", err)
	}
	s.cache.put(key, body)
	writeJSON(w, body, "miss")
	return nil
}

// writeBody marshals and writes a response that is neither cached nor a
// query result: no X-Cache header.
func writeBody(w http.ResponseWriter, v any) error {
	body, err := marshalBody(v)
	if err != nil {
		return fmt.Errorf("encoding response: %w", err)
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore dropped-error a client gone mid-reply is not a server failure
	_, _ = w.Write(body)
	return nil
}
