package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"surfknn/internal/server/api"
)

// The envelope shape, the error codes and the *api.Error value are part of
// the wire contract and live in internal/server/api; this file is the one
// emission path for every backend.

// fail writes err as the response and counts it: a *api.Error verbatim
// (with its Retry-After hint), a context error as 408 — the request's own
// deadline fired or the client went away — and anything else as 500, since
// by the time a backend runs, validation has vetted the parameters.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var e *api.Error
	switch {
	case errors.As(err, &e):
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		e = api.Errorf(http.StatusRequestTimeout, api.CodeTimeout, "query aborted: %v", err)
	default:
		e = api.Errorf(http.StatusInternalServerError, api.CodeInternal, "query failed: %v", err)
	}
	switch e.Status {
	case http.StatusBadRequest, http.StatusNotFound:
		s.stats.BadRequests.Add(1)
	case http.StatusRequestTimeout:
		s.stats.TimedOut.Add(1)
	case http.StatusTooManyRequests:
		s.stats.Rejected.Add(1)
	}
	writeError(w, e)
}

// writeError emits e's envelope with its status. Encoding into a fixed
// struct cannot fail, so the reply is always well-formed JSON.
func writeError(w http.ResponseWriter, e *api.Error) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	// The client may already be gone; nothing useful to do with the error.
	//lint:ignore dropped-error the reply path has no caller to surface a write error to
	_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: e.ErrorBody})
}
