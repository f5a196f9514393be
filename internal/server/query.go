package server

import (
	"errors"
	"net/http"
	"time"

	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
	"surfknn/internal/sklang/skexec"
)

// The SKQL routes: POST /v1/query executes one statement through the
// language front door — parse, plan, run the exact engine call the /v1
// point routes would have run, so the answer is bit-identical to theirs —
// and POST /v1/explain executes it too but answers with the annotated plan
// tree. GET /debug/explain serves the embedded console over the latter.

// catalog snapshots what the planner needs to know about this server's
// data.
func (s *Server) catalog() sklang.Catalog {
	return sklang.Catalog{
		Objects: len(s.db.Objects()),
		Faces:   s.db.Mesh.NumFaces(),
		Area:    s.db.Extent().Area(),
	}
}

// langError maps a parse/plan diagnostic onto the 400 envelope, carrying
// the offending position so clients can render a caret. Falls back to the
// plain 400 for non-positioned errors.
func (s *Server) langError(w http.ResponseWriter, err error) {
	var le *sklang.Error
	if !errors.As(err, &le) {
		s.badRequest(w, "%v", err)
		return
	}
	s.stats.BadRequests.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	writeEnvelope(w, api.ErrorBody{
		Code:    api.CodeBadRequest,
		Message: le.Error(),
		Line:    le.Pos.Line,
		Col:     le.Pos.Col,
		Token:   le.Tok,
	})
}

// compile parses and plans a statement, writing the 400 itself on failure.
func (s *Server) compile(w http.ResponseWriter, q string) (*sklang.Plan, bool) {
	plan, err := sklang.Compile(q, s.catalog())
	if err != nil {
		s.langError(w, err)
		return nil, false
	}
	if plan.K > maxK {
		s.badRequest(w, "k must be in [1, %d], got %d", maxK, plan.K)
		return nil, false
	}
	return plan, true
}

// runPlan executes a compiled plan under admission control on a pooled
// session, writing the error response itself on failure. The returned
// Outcome's Result aliases session scratch: callers must consume it before
// the deferred release — which is why release happens in the caller, via
// the returned func.
func (s *Server) runPlan(w http.ResponseWriter, r *http.Request, plan *sklang.Plan, timeout api.Duration) (*skexec.Outcome, func(), bool) {
	ctx, cancel := s.requestContext(r, time.Duration(timeout))
	if !s.admit(ctx, w) {
		cancel()
		return nil, nil, false
	}
	sess := s.db.AcquireSession()
	done := func() {
		s.db.Release(sess)
		s.adm.release()
		cancel()
	}
	out, err := skexec.Run(ctx, sess, plan)
	if err != nil {
		if errors.Is(err, skexec.ErrOffTerrain) {
			s.stats.BadRequests.Add(1)
			writeError(w, http.StatusNotFound, api.CodeNotFound, "%v", err)
		} else {
			writeQueryError(w, s.stats, err)
		}
		done()
		return nil, nil, false
	}
	return out, done, true
}

// --- POST /v1/query ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	plan, ok := s.compile(w, req.Q)
	if !ok {
		return
	}
	if plan.Explain {
		s.badRequest(w, "EXPLAIN statements are answered by POST /v1/explain")
		return
	}
	if plan.Form == "subscribe" {
		s.querySubscribe(w, r, plan, req.Timeout)
		return
	}

	// select/range answers are cacheable under (epoch, canonical statement);
	// distance depends only on the immutable terrain, so its key is
	// deliberately epoch-free — exactly like the /v1 point routes.
	suffix := "query|" + plan.Canonical
	key := suffix
	epochScoped := plan.Form != "distance"
	if epochScoped {
		key = epochKey(s.db.CurrentEpoch(), suffix)
	}
	if body, ok := s.cache.get(key); ok {
		if epochScoped {
			setEpoch(w, s.db.CurrentEpoch())
		}
		writeJSON(w, body, "hit")
		return
	}

	out, done, ok := s.runPlan(w, r, plan, req.Timeout)
	if !ok {
		return
	}
	defer done()

	resp := api.QueryResponse{Form: plan.Form, Algorithm: string(plan.Algo)}
	switch plan.Form {
	case "select", "range":
		resp.Result = toResponse(out.Result)
	case "distance":
		resp.Result = toResponse(out.Result) // no neighbours; the cost shell
		resp.Distance = &api.DistanceResponse{
			LB:       api.Float(out.Distance.LB),
			UB:       api.Float(out.Distance.UB),
			Accuracy: out.Distance.Accuracy, Iterations: out.Distance.Iterations,
		}
	}
	if epochScoped {
		setEpoch(w, out.Result.Epoch)
		key = epochKey(out.Result.Epoch, suffix)
	}
	s.respond(w, key, resp)
}

// querySubscribe registers the SUBSCRIBE form as a live subscription —
// the same monitor path as POST /v1/subscribe, never cached.
func (s *Server) querySubscribe(w http.ResponseWriter, r *http.Request, plan *sklang.Plan, timeout api.Duration) {
	mon, ok := s.monitor(w)
	if !ok {
		return
	}
	sched, _ := skexec.Schedule(plan.Sched)
	opt, err := coreOptions(plan.Options)
	if err != nil {
		s.badRequest(w, "invalid options: %v", err)
		return
	}
	q, ok := s.surfacePoint(w, plan.X, plan.Y)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, time.Duration(timeout))
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	defer s.adm.release()

	id, res, sr, err := mon.Subscribe(ctx, q, plan.K, sched, opt)
	if err != nil {
		writeQueryError(w, s.stats, err)
		return
	}
	sub := subscribeResponse(id, res, sr)
	setEpoch(w, res.Epoch)
	setSafeRegion(w, false)
	writeBody(w, api.QueryResponse{
		Form:         plan.Form,
		Algorithm:    string(plan.Algo),
		Result:       sub.Result,
		Subscription: &sub,
	})
}

// --- POST /v1/explain ---

// handleExplain executes the statement (EXPLAIN prefix optional) and
// answers with the annotated plan. Always a fresh execution — the route
// exists to measure, so it never serves from or fills the cache. The
// SUBSCRIBE form is evaluated once (MR3 + safe region) without registering
// a subscription.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req api.ExplainRequest
	if !s.decode(w, r, &req) {
		return
	}
	plan, ok := s.compile(w, req.Q)
	if !ok {
		return
	}
	out, done, ok := s.runPlan(w, r, plan, req.Timeout)
	if !ok {
		return
	}
	defer done()
	writeBody(w, explainResponse(plan, out.Result.Epoch))
}

// explainResponse renders an executed plan into the wire response.
func explainResponse(plan *sklang.Plan, epoch uint64) api.ExplainResponse {
	root := plan.Root.Wire()
	return api.ExplainResponse{
		Query:     plan.Canonical,
		Form:      plan.Form,
		Algorithm: string(plan.Algo),
		Plan:      root,
		Text:      sklang.RenderNode(root),
		Epoch:     epoch,
	}
}

// --- GET /debug/explain ---

func (s *Server) handleExplainConsole(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	//lint:ignore dropped-error a client gone mid-reply is not a server failure
	_, _ = w.Write([]byte(sklang.ExplainHTML))
}
