package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
// "session", "value" and "rendered". Those three open the object and
// are written by writeAnswer: the session name, then the answer's
// fragment as Session.Query encoded it.
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
	if err := decode(r, &req); err != nil {
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
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
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

	start := time.Now()
	res, outcome, err := sess.Query(ctx, s.plans, req.Query, version, req.NoCache)
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
	writeAnswer(w, r, sess.Name(), res, resp)
}

// writeAnswer writes a query response: the session name, the answer's
// pre-encoded fragment copied as it is, and the remaining members
// through the envelope's own encoder.
func writeAnswer(w http.ResponseWriter, r *http.Request, session string, ans Answer, rest queryResp) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer respBufPool.Put(buf)
	buf.WriteString(`{"session":`)
	buf.Write(jsontext.AppendString(buf.AvailableBuffer(), session))
	buf.WriteByte(',')
	buf.Write(ans.fragment)
	// The encoder opens rest's object with a brace; in place, that byte
	// is the comma after the fragment.
	comma := buf.Len()
	if err := encodeJSON(buf, rest); err != nil {
		writeErr(w, r, http.StatusInternalServerError, &encodingError{err})
		return
	}
	buf.Bytes()[comma] = ','
	writeBody(w, http.StatusOK, buf.Bytes())
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
// evaluations is safe because evaluation never mutates the AST.
type plan struct {
	expr iql.Expr
	norm string // canonical rendering, the result-cache key component
}

// QueryOutcome reports how a query was answered, for response metadata
// and cache-behaviour tests.
type QueryOutcome struct {
	PlanCached   bool
	ResultCached bool
}

// Answer pairs a query result with its encoded response fragment. The
// fragment is produced once, when the answer is first evaluated, and
// cached with it, so a result-cache hit skips the canonical ordering
// of bags and the encoding as well as the re-evaluation: answering it
// is a copy of the fragment into the response.
type Answer struct {
	core.Result
	// fragment is the answer's part of the response object, as bytes:
	//
	//	"value":<Result.Value as JSON>,"rendered":<Result.Value in IQL source syntax, as a JSON string>
	fragment []byte
}

// encodingError reports an answer that JSON cannot carry (a NaN or
// infinite float loaded from source data). It is the server's fault
// rather than the request's, so errStatus maps it to 500.
type encodingError struct{ err error }

func (e *encodingError) Error() string { return "server: encoding response: " + e.err.Error() }
func (e *encodingError) Unwrap() error { return e.err }

// fragmentScratch recycles the buffers answers are encoded in. A
// fragment grows append by append to a length nobody knows beforehand;
// grown in a recycled buffer and copied out at its exact length, it
// costs its own size once rather than every size it passed through.
var fragmentScratch = sync.Pool{New: func() any { return new(fragmentBufs) }}

// fragmentBufs are the two outputs of the one walk over an answer: the
// fragment, which is the value's JSON until the walk ends, and the
// value in IQL source syntax, which the fragment ends with.
type fragmentBufs struct{ frag, text []byte }

// render encodes the answer's response fragment from its result: one
// walk writes the JSON and the rendering, the rendering is escaped onto
// the JSON as a JSON string, and the whole is kept at its exact length.
func (a *Answer) render() error {
	s := fragmentScratch.Get().(*fragmentBufs)
	defer fragmentScratch.Put(s)
	var err error
	s.frag, s.text, err = iql.AppendJSONAndText(append(s.frag[:0], `"value":`...), s.text[:0], a.Value)
	if err != nil {
		return &encodingError{err}
	}
	s.frag = jsontext.AppendEscaped(append(s.frag, `,"rendered":"`...), s.text)
	s.frag = append(s.frag, '"')
	a.fragment = append(make([]byte, 0, len(s.frag)), s.frag...)
	return nil
}

// Query answers an IQL query against the requested schema version
// (core.CurrentVersion for the latest), consulting the plan cache and
// — unless noCache — the result cache.
func (s *Session) Query(ctx context.Context, plans *cache.Store[plan], src string, version int, noCache bool) (Answer, QueryOutcome, error) {
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
		pl = plan{expr: e, norm: e.String()}
		plans.Put(src, pl, planCost(src, pl), nil)
	}

	ver := version
	if ver == core.CurrentVersion {
		ver = ig.GlobalVersion()
	}
	key := strconv.Itoa(ver) + "\x00" + pl.norm
	if !noCache {
		if ans, ok := s.results.Get(key); ok {
			out.ResultCached = true
			if sp, _ := obs.StartSpan(ctx, obs.StageResultCache, ""); sp != nil {
				sp.SetCache(obs.CacheHit)
				sp.End(nil)
			}
			return ans, out, nil
		}
		if sp, _ := obs.StartSpan(ctx, obs.StageResultCache, ""); sp != nil {
			sp.SetCache(obs.CacheMiss)
			sp.End(nil)
		}
	}

	// Snapshot the invalidation generation before evaluating: if an
	// iteration's InvalidateDeps lands between our evaluation (under
	// the integrator's read lock) and the insert below, PutAt discards
	// the result — it was computed from pre-iteration derivations and
	// caching it would dodge the invalidation that covered it.
	gen := s.results.Generation()
	res, err := ig.QueryExprAt(ctx, version, pl.expr)
	if err != nil {
		return Answer{}, out, err
	}
	ans := Answer{Result: res}
	rsp, _ := obs.StartSpan(ctx, obs.StageRender, "")
	err = ans.render()
	rsp.End(err)
	if err != nil {
		// Not cached: every hit would fail the same way.
		return Answer{}, out, err
	}
	if !noCache && res.Version == ver {
		// res.Version can differ from ver only if an iteration raced
		// between GlobalVersion and evaluation; skip caching then
		// rather than file the result under the wrong version.
		s.results.PutAt(gen, key, ans, resultCost(ans), res.Deps)
	}
	return ans, out, nil
}

// resultCost is a cached answer's in-memory size for the result cache's
// byte budget: the value's estimated footprint, the encoded fragment's
// exact length, and the strings beside them.
func resultCost(a Answer) int64 {
	n := a.Value.Footprint() + int64(len(a.Schema)) + 64
	n += int64(len(a.fragment))
	for _, w := range a.Warnings {
		n += int64(len(w)) + 16
	}
	for _, d := range a.Deps {
		n += int64(len(d)) + 16
	}
	return n
}

// planCost estimates a cached plan's size: the source text it is keyed
// by plus its normalised rendering (the AST is of the same order).
func planCost(src string, pl plan) int64 {
	return int64(len(src) + 2*len(pl.norm) + 64)
}
