package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/jsontext"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/query"
)

type queryReq struct {
	Session string `json:"session,omitempty"`
	Query   string `json:"query"`
	// Version pins the query to a published global schema version;
	// omitted or null means the latest.
	Version *int `json:"version,omitempty"`
	// Explain adds the derivation tree of every referenced object.
	Explain bool `json:"explain,omitempty"`
	// NoCache bypasses the result cache (the plan cache still
	// applies).
	NoCache bool `json:"no_cache,omitempty"`
	// TimeoutMs shortens the server's query deadline for this request.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// RequireFresh rejects degraded answers (ones evaluated over stale
	// fallback extents) with 503 instead of returning them with a
	// warning. The X-Require-Fresh: 1 header is equivalent.
	RequireFresh bool `json:"require_fresh,omitempty"`
}

// queryResp holds the members of a query response that follow
// "session", "value" and "rendered". Those three open the object:
// openAnswer writes the session name, Session.Query appends the
// answer's fragment.
type queryResp struct {
	Warnings     []string `json:"warnings,omitempty"`
	Version      int      `json:"version"`
	Schema       string   `json:"schema"`
	PlanCached   bool     `json:"plan_cached"`
	ResultCached bool     `json:"result_cached"`
	// Degraded marks an answer evaluated over stale fallback extents
	// because one or more sources were unreachable; the matching
	// warnings name the sources.
	Degraded  bool              `json:"degraded,omitempty"`
	ElapsedUs int64             `json:"elapsed_us"`
	Explain   map[string]string `json:"explain,omitempty"`
	// Trace is the per-stage span tree, present when the request set
	// the X-Automed-Trace: 1 header.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryReq
	if err := decodeQuery(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: query is required"))
		return
	}
	sess, err := s.reg.Get(req.Session, false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	version := core.CurrentVersion
	if req.Version != nil {
		version = *req.Version
	}

	ctx := r.Context()
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMs > 0 {
		rt := time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout == 0 || rt < timeout {
			timeout = rt
		}
	}
	if timeout > 0 {
		dl := &deadlineCtx{Context: ctx, at: time.Now().Add(timeout)}
		defer dl.stop()
		ctx = dl
	}

	// Trace when the client asked for one, and when a slow-query
	// threshold is armed (every query is then traced; only those at or
	// above the threshold are retained in the /debug/traces ring).
	wantTrace := r.Header.Get("X-Automed-Trace") == "1"
	var tr *obs.Trace
	if wantTrace || s.cfg.SlowQuery > 0 {
		tr = obs.NewTrace(requestID(r), sess.Name(), req.Query)
		ctx = obs.WithTrace(ctx, tr)
	}

	// Admission control: the evaluation below runs only once the fair
	// queue grants a slot. The wait counts against the query deadline
	// (ctx carries it) but not against the query latency histogram —
	// queue time has its own. Rejections (429/503 + Retry-After) have
	// already been written when ok is false.
	release, ok := s.admit(ctx, w, r, sess.Name())
	if !ok {
		return
	}
	defer release()

	// The response is built where it is written from: the answer goes
	// straight into this buffer, and an answer that fails, or is refused
	// below, leaves it to be dropped — writeErr writes from one of its own.
	buf := respBufPool.Get().(*respBuf)
	defer respBufPool.Put(buf)
	openAnswer(buf, sess.Name())

	start := time.Now()
	res, outcome, err := sess.Query(ctx, buf, s.reg.caches.plans, req.Query, version, req.NoCache)
	elapsed := time.Since(start)
	s.metrics.Query(elapsed, err, errors.Is(err, context.DeadlineExceeded))

	var tj *obs.TraceJSON
	if tr != nil {
		t := tr.Finish(elapsed)
		tj = &t
		if wantTrace || (s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery) {
			s.traces.Add(t)
		}
	}
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}

	degraded := false
	for _, warn := range res.Warnings {
		if query.IsDegraded(warn) {
			degraded = true
			break
		}
	}
	if degraded {
		s.metrics.DegradedQuery()
		if req.RequireFresh || r.Header.Get("X-Require-Fresh") == "1" || s.cfg.RequireFresh {
			writeErr(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("server: answer is degraded and the request requires fresh data: %s",
					strings.Join(res.Warnings, "; ")))
			return
		}
	}

	resp := queryResp{
		Warnings:     res.Warnings,
		Version:      res.Version,
		Schema:       res.Schema,
		PlanCached:   outcome.PlanCached,
		ResultCached: outcome.ResultCached,
		Degraded:     degraded,
		ElapsedUs:    elapsed.Microseconds(),
	}
	if wantTrace {
		resp.Trace = tj
	}
	if req.Explain {
		resp.Explain = s.explain(sess, req.Query, res.Version)
	}
	writeAnswer(w, r, buf, resp)
}

// deadlineCtx is a request's context under its query deadline, set only
// once something waits on it or derives a context from it: a result-cache
// hit does neither, which spares it a timer and its request a child.
type deadlineCtx struct {
	context.Context
	at     time.Time
	mu     sync.Mutex
	set    atomic.Pointer[context.Context]
	cancel context.CancelFunc
}

func (c *deadlineCtx) get() context.Context {
	if p := c.set.Load(); p != nil {
		return *p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.set.Load(); p != nil {
		return *p
	}
	ctx, cancel := context.WithDeadline(c.Context, c.at)
	c.cancel = cancel
	c.set.Store(&ctx)
	return ctx
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.get().Deadline() }
func (c *deadlineCtx) Done() <-chan struct{}       { return c.get().Done() }
func (c *deadlineCtx) Err() error                  { return c.get().Err() }

// Value is the set context's once there is one, so that a context
// derived from c finds the deadline's cancellation under it.
func (c *deadlineCtx) Value(key any) any {
	if p := c.set.Load(); p != nil {
		return (*p).Value(key)
	}
	return c.Context.Value(key)
}

// stop releases the deadline's timer, if it was set.
func (c *deadlineCtx) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
	}
}

// openAnswer starts a query response in buf, whatever buf held: the
// object's brace and the session name. The answer's fragment comes next
// (Session.Query), then writeAnswer.
func openAnswer(buf *respBuf, session string) {
	buf.b = append(buf.b[:0], `{"session":`...)
	buf.b = append(jsontext.AppendString(buf.b, session), ',')
}

// writeAnswer ends a query response begun by openAnswer and an answer's
// fragment with the remaining members, through the envelope's own
// encoder, and writes it.
func writeAnswer(w http.ResponseWriter, r *http.Request, buf *respBuf, rest queryResp) {
	// The encoder opens rest's object with a brace; in place, that byte
	// is the comma after the fragment.
	comma := len(buf.b)
	if err := encodeJSON(buf, rest); err != nil {
		writeErr(w, r, http.StatusInternalServerError, &encodingError{err})
		return
	}
	buf.b[comma] = ','
	writeBody(w, http.StatusOK, buf.b)
}

// explain renders the derivation tree (provenance) of every schema
// object the query references, resolved against the answered version.
func (s *Server) explain(sess *Session, src string, version int) map[string]string {
	ig, err := sess.integrator()
	if err != nil {
		return nil
	}
	e, err := iql.Parse(src)
	if err != nil {
		return nil
	}
	schema, ok := ig.SchemaAt(version)
	if !ok {
		return nil
	}
	out := make(map[string]string)
	for _, parts := range iql.UniqueSchemeRefs(e) {
		obj, err := schema.Resolve(parts)
		if err != nil {
			continue
		}
		out[obj.Scheme.String()] = ig.Processor().Explain(obj.Scheme)
	}
	return out
}

// plan is a parsed, normalised IQL query; sharing one across
// evaluations, sessions included, is safe because evaluation never
// mutates the AST: it publishes each comprehension's analysis on it
// once, and parks emptied evaluation state beside that.
type plan struct {
	expr iql.Expr
	// norm is expr's canonical rendering: the result-cache key of every
	// resolution that leaves expr as it is (core.Resolution).
	norm string
	// refs are expr's distinct scheme references, which a resolution
	// checks instead of walking expr.
	refs [][]string
}

// QueryOutcome reports how a query was answered, for response metadata
// and cache-behaviour tests.
type QueryOutcome struct {
	PlanCached   bool
	ResultCached bool
}

// Answer is what a query's answer is besides its bytes, which
// Session.Query has appended to the response by the time it returns
// one: the warnings and the schema version it was resolved against. An
// answer held in the result cache also keeps the bytes, so a hit skips
// the canonical ordering of bags and the encoding as well as the
// evaluation: answering it is a copy of the fragment into the response.
// No answer holds a value.
type Answer struct {
	Warnings []string
	// Version is the global schema version the query was resolved
	// against, Schema that version's name: a hit carries the request's
	// own, whatever version the answer was evaluated at.
	Version int
	Schema  string
	// fragment is the answer's part of the response object, as bytes, at
	// its exact length; nil on an answer that was not cached:
	//
	//	"value":<the value as JSON>,"rendered":<the value in IQL source syntax, as a JSON string>
	fragment []byte
}

// answerKey is an answer's address in the result cache: the resolved
// query's text, and what its references derive from
// (query.Processor.Address). An answer is valid at every version that
// resolves the query alike, for every session whose references derive
// from the same, and until what they derive from changes — which gives
// the answer a new address.
type answerKey struct {
	text string
	refs query.Fingerprint
}

// encodingError reports an answer that JSON cannot carry (a NaN or
// infinite float loaded from source data). It is the server's fault
// rather than the request's, so errStatus maps it to 500.
type encodingError struct{ err error }

func (e *encodingError) Error() string { return "server: encoding response: " + e.err.Error() }
func (e *encodingError) Unwrap() error { return e.err }

// Query answers an IQL query against the requested schema version
// (core.CurrentVersion for the latest), consulting the plan cache and
// — unless noCache — the result cache, and appends the answer's
// fragment to buf; with an error, buf holds what it held.
//
// The query is resolved against the version before the result cache is
// consulted, and the cache is keyed by the resolution and what its
// references derive from (answerKey): evaluation depends on the version
// only through the resolution (derivations are shared by every
// version), so one answer serves every version that resolves the query
// alike, and every session whose references derive from the same. The
// resolution holds the integrator's read lock until the answer is found
// or evaluated, so no step lands in between.
func (s *Session) Query(ctx context.Context, buf *respBuf, plans *cache.Store[plan], src string, version int, noCache bool) (Answer, QueryOutcome, error) {
	ig, err := s.integrator()
	if err != nil {
		return Answer{}, QueryOutcome{}, err
	}

	var out QueryOutcome
	psp, _ := obs.StartSpan(ctx, obs.StageParse, "")
	pl, ok := plans.Get(src)
	if ok {
		out.PlanCached = true
		psp.SetCache(obs.CacheHit)
		psp.End(nil)
	} else {
		e, err := iql.Parse(src)
		psp.SetCache(obs.CacheMiss)
		psp.End(err)
		if err != nil {
			return Answer{}, out, err
		}
		pl = plan{expr: e, norm: e.String(), refs: iql.UniqueSchemeRefs(e)}
		plans.Put(src, pl, planCost(src, pl), nil)
	}

	var ans Answer
	err = ig.Resolve(version, pl.expr, pl.refs, func(r core.Resolution) (err error) {
		var key answerKey
		if !noCache {
			refs := pl.refs
			key.text = pl.norm
			if r.Rewritten {
				key.text, refs = r.Expr.String(), iql.UniqueSchemeRefs(r.Expr)
			}
			key.refs = ig.Processor().Address(refs)
			hit, ok := s.caches.results.Get(key)
			sp, _ := obs.StartSpan(ctx, obs.StageResultCache, "")
			if ok {
				sp.SetCache(obs.CacheHit)
				sp.End(nil)
				out.ResultCached = true
				ans = hit
				ans.Version, ans.Schema = r.Version, r.Schema
				return nil
			}
			sp.SetCache(obs.CacheMiss)
			sp.End(nil)
		}
		ans, err = s.evaluate(ctx, buf, ig, r, key)
		return err
	})
	if err != nil {
		return Answer{}, out, err
	}
	if out.ResultCached {
		buf.b = append(buf.b, ans.fragment...)
	}
	return ans, out, nil
}

// evaluate answers a resolved query under the read lock Query's
// resolution holds, appends the fragment to buf, and caches the answer
// under key unless key is empty (no_cache). A change that lands
// meanwhile — a breaker's recovery or /invalidate, which take no
// integrator lock — has retired key: the answer lands where it is not
// asked for again.
func (s *Session) evaluate(ctx context.Context, buf *respBuf, ig *core.Integrator, r core.Resolution, key answerKey) (Answer, error) {
	// Evaluation writes the value's JSON onto buf as it goes and the
	// rendering, already escaped for a JSON string, into a buffer beside
	// it — it follows the JSON in the response, so it cannot be written
	// in place; what is left when evaluation returns is to copy the one
	// after the other.
	mark := len(buf.b)
	text := respBufPool.Get().(*respBuf)
	defer respBufPool.Put(text)
	enc := iql.Encoding{JSON: append(buf.b, `"value":`...), Text: text.b[:0]}
	warns, _, err := ig.Processor().EvalEncoded(ctx, r.Expr, &enc)
	buf.b, text.b = enc.JSON, enc.Text
	if err != nil {
		// Not cached: every hit would fail the same way.
		buf.b = buf.b[:mark]
		var unencodable *iql.EncodingError
		if errors.As(err, &unencodable) {
			err = &encodingError{unencodable.Err}
		}
		return Answer{}, err
	}
	rsp, _ := obs.StartSpan(ctx, obs.StageRender, "")
	buf.b = appendRendered(buf.b, enc.Text)
	fragment := buf.b[mark:]
	rsp.SetRows(int64(enc.Rows))
	rsp.SetBytes(int64(len(fragment)))
	rsp.End(nil)

	ans := Answer{Warnings: warns, Version: r.Version, Schema: r.Schema}
	if key.text != "" {
		// Only here is the fragment copied: buf is the response's, and
		// goes back to its pool when the response is written.
		ans.fragment = append(make([]byte, 0, len(fragment)), fragment...)
		s.caches.results.Put(key, ans, resultCost(ans), nil)
	}
	return ans, nil
}

// appendRendered ends an answer's fragment: after the value's JSON, the
// rendering as a JSON string. text is iql.Encoding's, escaped already.
func appendRendered(dst, text []byte) []byte {
	dst = append(append(dst, `,"rendered":"`...), text...)
	return append(dst, '"')
}

// resultCost is a cached answer's in-memory size for the result cache's
// byte budget: the encoded fragment's exact length and the strings
// beside it.
func resultCost(a Answer) int64 {
	n := int64(len(a.fragment)) + int64(len(a.Schema)) + 64
	for _, w := range a.Warnings {
		n += int64(len(w)) + 16
	}
	return n
}

// planCost estimates a cached plan's size: the source text it is keyed
// by, its normalised rendering and the AST (of the same order), its
// references, and what evaluating the AST pins on its comprehension
// nodes — their analysis and the evaluation state parked beside it,
// shared by every session that evaluates the plan (iql.PlanFootprint).
func planCost(src string, pl plan) int64 {
	n := int64(len(src)+2*len(pl.norm)+64) + iql.PlanFootprint(pl.expr)
	for _, parts := range pl.refs {
		n += 24 + 16*int64(len(parts)) // the part strings are the AST's
	}
	return n
}
