package api

import (
	"fmt"
	"strings"
)

// ErrorEnvelope is the typed JSON error body every non-2xx response
// carries:
//
//	{"error": {"code": "saturated", "message": "..."}}
//
// Code is a stable machine-readable identifier (clients switch on it);
// Message is human-readable and free to change.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error" api:"v1"`
}

// ErrorBody is the envelope's payload.
type ErrorBody struct {
	Code    string `json:"code" api:"v1"`
	Message string `json:"message" api:"v1"`
	// Shards carries the per-shard failure detail when a scatter-gather
	// coordinator could not assemble a complete answer (code
	// "shard_unavailable"): which shards failed and why, so a partial
	// outage is diagnosable from the error alone.
	Shards []ShardError `json:"shards,omitempty" api:"v1"`
	// Line/Col/Token locate the offending token when a 400 came from
	// parsing or planning an SKQL statement (POST /v1/query, /v1/explain):
	// 1-based source position plus the token text (empty at end of input).
	// Absent on every other error.
	Line  int    `json:"line,omitempty" api:"v1"`
	Col   int    `json:"col,omitempty" api:"v1"`
	Token string `json:"token,omitempty" api:"v1"`
}

// ShardError is one shard's failure inside a degraded scatter-gather
// response.
type ShardError struct {
	Shard string `json:"shard" api:"v1"`
	Error string `json:"error" api:"v1"`
}

// Error codes, one per distinct client-visible failure mode.
const (
	CodeBadRequest       = "bad_request"       // malformed JSON or invalid parameters
	CodeNotFound         = "not_found"         // unknown route or point off the terrain
	CodeTimeout          = "timeout"           // deadline exceeded or client gone (408)
	CodeSaturated        = "saturated"         // admission control refused the request (429)
	CodeInternal         = "internal"          // engine failure or recovered panic (500)
	CodeShardUnavailable = "shard_unavailable" // a required shard is down; answer would be partial (503)
)

// Error is a non-2xx answer as one Go value: the HTTP status, the
// Retry-After hint, and the envelope body. It is the only error type that
// crosses the wire. The serving front end writes any *Error verbatim, the
// typed client decodes every non-2xx envelope into one, and the coordinator
// relays a shard's verdict as the *Error it received.
type Error struct {
	Status int // HTTP status code
	// RetryAfter is the Retry-After hint in whole seconds on a refusal the
	// client may retry (429 saturated, 503 shard_unavailable); zero sends
	// no header.
	RetryAfter int
	ErrorBody
}

// Errorf builds an *Error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, ErrorBody: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}}
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d): %s", e.Code, e.Status, e.Message)
	for _, s := range e.Shards {
		fmt.Fprintf(&b, "; %s: %s", s.Shard, s.Error)
	}
	return b.String()
}
