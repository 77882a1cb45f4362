package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

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
func decode(r *http.Request, v any) error { return decodeFrom(r.Body, v) }

func decodeFrom(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: invalid request body: %w", err)
	}
	return nil
}

// decodeQuery is decode for a /query body. The body clients send — an
// object of queryReq's string and boolean members, named as tagged — is
// read in place, which spares the hottest request the decoder's
// buffers; any other body is decode's to read or refuse.
func decodeQuery(r *http.Request, req *queryReq) error {
	buf := bodyPool.Get().(*respBuf)
	defer bodyPool.Put(buf)
	b := buf.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("server: invalid request body: %w", err)
		}
	}
	buf.b = b
	if readQuery(b, req) {
		return nil
	}
	*req = queryReq{}
	return decodeFrom(bytes.NewReader(b), req)
}

// bodyPool recycles request-body buffers, apart from the response
// buffers, which are larger.
var bodyPool = sync.Pool{New: func() any { return new(respBuf) }}

// readQuery reads b into req if b is a body decodeQuery reads in place.
func readQuery(b []byte, req *queryReq) bool {
	b, ok := skip(b, '{')
	if !ok {
		return false
	}
	for more := true; more; b, more = skip(b, ',') {
		key, escaped, rest, ok := jsonString(b)
		if !ok || escaped {
			return false
		}
		b = rest
		if b, ok = skip(b, ':'); !ok {
			return false
		}
		var str *string
		var flag *bool
		switch string(key) {
		case "session":
			str = &req.Session
		case "query":
			str = &req.Query
		case "explain":
			flag = &req.Explain
		case "no_cache":
			flag = &req.NoCache
		case "require_fresh":
			flag = &req.RequireFresh
		default:
			return false
		}
		switch {
		case str != nil:
			raw, escaped, rest, ok := jsonString(b)
			if !ok {
				return false
			}
			if b = rest; !escaped {
				*str = string(raw)
			} else if *str, ok = unescape(raw); !ok {
				return false
			}
		default:
			if *flag = bytes.HasPrefix(b, []byte("true")); *flag {
				b = b[4:]
			} else if bytes.HasPrefix(b, []byte("false")) {
				b = b[5:]
			} else {
				return false
			}
		}
	}
	b, ok = skip(b, '}')
	return ok && len(bytes.TrimLeft(b, " \t\r\n")) == 0
}

// skip skips white space and then c, and reports whether c was there.
func skip(b []byte, c byte) ([]byte, bool) {
	b = bytes.TrimLeft(b, " \t\r\n")
	if len(b) == 0 || b[0] != c {
		return b, false
	}
	return b[1:], true
}

// jsonString reads a JSON string after white space: raw is what the
// quotes enclose, escaped whether it holds an escape. One holding a
// control character, invalid UTF-8 or an escape JSON does not know is
// not read.
func jsonString(b []byte) (raw []byte, escaped bool, rest []byte, ok bool) {
	if b, ok = skip(b, '"'); !ok {
		return nil, false, nil, false
	}
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c < 0x20:
			return nil, false, nil, false
		case c == '"':
			return b[:i], escaped, b[i+1:], utf8.Valid(b[:i])
		case c == '\\':
			if i+1 == len(b) || !strings.ContainsRune(`"\\/bfnrtu`, rune(b[i+1])) {
				return nil, false, nil, false
			}
			escaped = true
			i++
		}
	}
	return nil, false, nil, false
}

// unescape is the value of a JSON string whose escapes jsonString has
// checked, unless it escapes a surrogate, which JSON pairs or replaces.
// The value is built in one allocation, each run between escapes copied
// at once.
func unescape(raw []byte) (string, bool) {
	var out strings.Builder
	out.Grow(len(raw))
	for {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			out.Write(raw)
			return out.String(), true
		}
		c := raw[i+1]
		out.Write(raw[:i])
		raw = raw[i+2:]
		switch c {
		case 'b', 'f', 'n', 'r', 't':
			out.WriteByte("\b\f\n\r\t"[strings.IndexByte("bfnrt", c)])
		case 'u':
			var r rune
			for j := range 4 {
				d := -1
				if j < len(raw) {
					d = strings.IndexByte("0123456789abcdef", raw[j]|0x20)
				}
				if d < 0 {
					return "", false
				}
				r = r<<4 | rune(d)
			}
			if utf16.IsSurrogate(r) {
				return "", false
			}
			out.WriteRune(r)
			raw = raw[4:]
		default: // a quotation mark, a reverse solidus or a solidus
			out.WriteByte(c)
		}
	}
}
