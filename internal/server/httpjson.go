package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
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

// respBufPool recycles response-encoding buffers across requests.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeJSON appends v and a newline to buf, HTML escaping off.
func encodeJSON(buf *bytes.Buffer, v any) error {
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
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
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
	writeBody(w, status, buf.Bytes())
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
	if session == "" {
		session = "default"
	}
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

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: invalid request body: %w", err)
	}
	return nil
}

// The functions below write JSON strings and numbers byte for byte as
// encoding/json does with SetEscapeHTML(false), without reflection and
// without an intermediate value.

// jsonSafePrefix returns the length of the longest prefix of src that a
// JSON string carries as it is: no quote, backslash or control byte,
// no invalid UTF-8, no U+2028 or U+2029.
func jsonSafePrefix[B []byte | string](src B) int {
	for i := 0; i < len(src); {
		b := src[i]
		if b < utf8.RuneSelf {
			if b < 0x20 || b == '"' || b == '\\' {
				return i
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		if (c == utf8.RuneError && size == 1) || c == '\u2028' || c == '\u2029' {
			return i
		}
		i += size
	}
	return len(src)
}

// appendJSONEscaped appends src as the inside of a JSON string.
func appendJSONEscaped[B []byte | string](dst []byte, src B) []byte {
	const hex = "0123456789abcdef"
	for len(src) > 0 {
		n := jsonSafePrefix(src)
		dst = append(dst, src[:n]...)
		if src = src[n:]; len(src) == 0 {
			break
		}
		size := 1
		switch b := src[0]; {
		case b == '"' || b == '\\':
			dst = append(dst, '\\', b)
		case b == '\b':
			dst = append(dst, '\\', 'b')
		case b == '\f':
			dst = append(dst, '\\', 'f')
		case b == '\n':
			dst = append(dst, '\\', 'n')
		case b == '\r':
			dst = append(dst, '\\', 'r')
		case b == '\t':
			dst = append(dst, '\\', 't')
		case b < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		default:
			// jsonSafePrefix stops at a multi-byte sequence only for
			// invalid UTF-8 (one byte) or U+2028/U+2029 (three).
			var c rune
			c, size = utf8.DecodeRuneInString(string(src[:min(utf8.UTFMax, len(src))]))
			if c == utf8.RuneError {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			}
		}
		src = src[size:]
	}
	return dst
}

// appendJSONString appends s as a JSON string.
func appendJSONString(dst []byte, s string) []byte {
	return append(appendJSONEscaped(append(dst, '"'), s), '"')
}

// appendJSONFloat appends f as a JSON number (ES6 number-to-string, as
// encoding/json); NaN and the infinities are its UnsupportedValueError.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
