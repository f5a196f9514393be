package server

import (
	"errors"
	"net/http"

	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
)

// The SKQL routes: POST /v1/query executes one statement through the
// language front door — parse, plan, and hand the plan to the backend, which
// runs the exact call the /v1 point routes would have run, so the answer is
// bit-identical to theirs — and POST /v1/explain executes it too but answers
// with the annotated plan tree. GET /debug/explain serves the embedded
// console over the latter.

// compile parses and plans a statement against the backend's catalog. A
// parse/plan diagnostic becomes a 400 carrying the offending position, so
// clients can render a caret.
func (s *Server) compile(q string) (*sklang.Plan, error) {
	plan, err := sklang.Compile(q, s.b.Catalog())
	if err != nil {
		var le *sklang.Error
		if !errors.As(err, &le) {
			return nil, badRequest("%v", err)
		}
		e := badRequest("%s", le.Error())
		e.Line, e.Col, e.Token = le.Pos.Line, le.Pos.Col, le.Tok
		return nil, e
	}
	if plan.K > maxK { // the parser checks k ≥ 1; range and distance carry none
		return nil, checkK(plan.K)
	}
	return plan, nil
}

// --- POST /v1/query ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req api.QueryRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	plan, err := s.compile(req.Q)
	if err != nil {
		return err
	}
	if plan.Explain {
		return badRequest("EXPLAIN statements are answered by POST /v1/explain")
	}

	// A subscription is server-side state, never a cacheable answer.
	if plan.Form == "subscribe" {
		resp, epoch, err := s.b.Query(r.Context(), plan, req.Timeout)
		if err != nil {
			return err
		}
		setEpoch(w, epoch)
		setSafeRegion(w, false)
		return writeBody(w, resp)
	}

	// select/range answers are cacheable under (epoch, canonical statement);
	// distance depends only on the immutable terrain, so its key is
	// deliberately epoch-free — exactly like the /v1 point routes.
	suffix := "query|" + plan.Canonical
	epochScoped := plan.Form != "distance"
	if epochScoped {
		if s.cached(w, suffix) {
			return nil
		}
	} else if body, ok := s.cache.get(suffix); ok {
		writeJSON(w, body, "hit")
		return nil
	}
	resp, epoch, err := s.b.Query(r.Context(), plan, req.Timeout)
	if err != nil {
		return err
	}
	key := suffix
	if epochScoped {
		setEpoch(w, epoch)
		key = epochKey(epoch, suffix)
	}
	return s.respond(w, key, resp)
}

// --- POST /v1/explain ---

// handleExplain executes the statement (EXPLAIN prefix optional) and
// answers with the annotated plan. Always a fresh execution — the route
// exists to measure, so it never serves from or fills the cache.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) error {
	var req api.ExplainRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	plan, err := s.compile(req.Q)
	if err != nil {
		return err
	}
	root, epoch, err := s.b.Explain(r.Context(), plan, req.Timeout)
	if err != nil {
		return err
	}
	setEpoch(w, epoch)
	return writeBody(w, api.ExplainResponse{
		Query:     plan.Canonical,
		Form:      plan.Form,
		Algorithm: string(plan.Algo),
		Plan:      root,
		Text:      sklang.RenderNode(root),
		Epoch:     epoch,
	})
}

// --- GET /debug/explain ---

func handleExplainConsole(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	//lint:ignore dropped-error a client gone mid-reply is not a server failure
	_, _ = w.Write([]byte(sklang.ExplainHTML))
}
