package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/dataspace/automed/internal/obs"
)

type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// ridKey carries the request ID through handler contexts.
type ridKeyType struct{}

var ridKey ridKeyType

func withRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey, rid)
}

// requestID returns the request's generated (or propagated) ID.
func requestID(r *http.Request) string {
	rid, _ := r.Context().Value(ridKey).(string)
	return rid
}

// respBuf is a response body being built: bytes appended to directly
// or, as an io.Writer, by encoding/json.
type respBuf struct{ b []byte }

func (r *respBuf) Write(p []byte) (int, error) {
	r.b = append(r.b, p...)
	return len(p), nil
}

// respBufPool recycles response-encoding buffers across requests.
var respBufPool = sync.Pool{New: func() any { return new(respBuf) }}

// encodeJSON appends v and a newline to buf, HTML escaping off.
func encodeJSON(buf *respBuf, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// writeBody commits the status and writes an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before committing the status so an unencodable value
	// becomes a 500, not a 200 with a truncated body.
	buf := respBufPool.Get().(*respBuf)
	buf.b = buf.b[:0]
	defer respBufPool.Put(buf)
	if err := encodeJSON(buf, v); err != nil {
		if _, isErr := v.(apiError); !isErr {
			writeJSON(w, http.StatusInternalServerError,
				apiError{Error: fmt.Sprintf("server: encoding response: %v", err)})
			return
		}
		http.Error(w, `{"error":"server: encoding response failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, buf.b)
}

func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error(), RequestID: requestID(r)})
}

// admit gates one unit of work (a query or an integration step) through
// the admission controller, parking it in the per-session fair queue at
// capacity. On rejection it writes the whole response — 429 at the
// queue bound, 503 while draining or when the caller's deadline expired
// in the queue, both with a Retry-After estimate — and returns ok
// false. On admission the returned release must be called when the work
// finishes. The wait (if any) is recorded as a queue span on the
// context's trace and in the automed_queue_wait_seconds histogram.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request, session string) (release func(), ok bool) {
	session = canonicalName(session)
	sp, _ := obs.StartSpan(ctx, obs.StageQueue, session)
	release, waited, err := s.adm.acquire(ctx, session)
	if err == nil {
		s.metrics.QueueAdmitted(waited)
		sp.End(nil)
		return release, true
	}
	sp.End(err)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	switch {
	case errors.Is(err, errOverCapacity):
		s.metrics.QueueRejected()
		writeErr(w, r, http.StatusTooManyRequests, err)
	case errors.Is(err, errDraining):
		s.metrics.QueueDrainRejected()
		writeErr(w, r, http.StatusServiceUnavailable, err)
	default:
		// The caller's context expired while parked in the queue.
		writeErr(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("server: request expired in the admission queue: %w", err))
	}
	return nil, false
}

// errStatus maps workflow errors onto HTTP statuses.
func errStatus(err error) int {
	var unencodable *encodingError
	switch {
	case errors.As(err, &unencodable):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "no session"):
		return http.StatusNotFound
	case strings.Contains(msg, "already"):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// decode reads a request body into v. Numbers bound for an untyped
// field — the cells of inline /sources rows, the only such field — stay
// json.Number, so an int column takes every int64 exactly rather than
// what survives a float64.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: invalid request body: %w", err)
	}
	return nil
}
