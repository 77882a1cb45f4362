// Package server is the dataspace daemon's serving layer: the paper's
// pay-as-you-go workflow (wrap, federate, intersect, refine, query) as
// HTTP/JSON endpoints over a registry of named integration sessions,
// which clients keep querying at any published global schema version
// while integration proceeds.
//
// Settings live in one struct, Config. DefaultConfig is what the daemon
// ships; the registry and every session hold a copy, and
// Config.configure is the only place a query processor is configured.
// The caches are not settings: the registry holds one of each layer,
// and every session and its processor use those.
//
// A workflow step (POST /sources, /federate, /intersect, /refine,
// /suggest) crosses one path, Server.step: decode the body, pass
// admission control, find the session, run the operation and, if it
// mutated the session, count the iteration and autosave, then respond.
// POST /query has its own path (handleQuery: deadline, trace, degraded
// answers, explain) behind the same admission control.
//
//   - Admission (queue.go, drain.go): MaxInflight requests run, MaxQueue
//     more park in a per-session fair queue, the rest get 429 +
//     Retry-After; a draining server answers 503, finishes what it
//     admitted and flushes every session.
//   - Caches (query.go): one per layer per daemon — plans, answers,
//     and the processors' extent memo, source extents and join indexes
//     (query.Stores). An answer is addressed by the resolved query and
//     what its references derive from, an extent by what derives it,
//     so sessions over the same source instances share them, a step or
//     a recovering source gives only what it touched new addresses, and
//     nothing is ever evicted for being stale. POST
//     /sessions/{name}/invalidate moves the session's sources to fresh
//     epochs, which makes every session over them read them again.
//   - Persistence (store.go): with a store open every mutating step
//     autosaves its session as one atomically replaced JSON file; a
//     restored session over the sources it took over finds the caches
//     warm. Saves and restores are serialised per session, never across
//     sessions.
//   - Fault tolerance: sources sit behind internal/query's circuit
//     breakers with stale-extent fallback; degraded answers are flagged
//     or, on request, refused; /healthz reports breaker states and
//     drives the rate-limited recovery probe.
//   - Observability (metrics.go, prom.go, health.go): request IDs,
//     access and panic logs, counters and histograms as JSON or
//     Prometheus text, per-request span trees, a ring of slow traces.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/query"
)

// Config is the server's settings: the one struct a tuning value lives
// in between the daemon's flag and the component it tunes. The registry
// and every session hold a copy; there is no per-session projection.
type Config struct {
	// CacheBytes is the byte budget of each of the daemon's cache
	// layers — plans, query results, extent memo, source extents and join
	// indexes, each one per daemon and shared by every session — beyond
	// which the least recently used entries are evicted; <= 0 means
	// unbounded. It is the caches' only bound but the join-index layer's
	// fixed entry cap.
	CacheBytes int64
	// QueryTimeout is the default per-query evaluation deadline;
	// requests may shorten it via timeout_ms. 0 means no deadline.
	QueryTimeout time.Duration
	// MaxSteps bounds IQL evaluation steps per query (a defence
	// against runaway comprehensions); 0 means unlimited.
	MaxSteps int
	// SlowQuery, when > 0, traces every query and retains those at or
	// above the threshold in the /debug/traces ring even when the
	// client did not ask for a trace.
	SlowQuery time.Duration
	// MaxInflight bounds how many admitted requests (queries and
	// integration steps) may execute concurrently; excess requests park
	// in a per-session fair queue. <= 0 disables admission control
	// (every request is admitted immediately).
	MaxInflight int
	// MaxQueue bounds the fair queue; requests arriving beyond it are
	// rejected with 429 + Retry-After. Ignored when MaxInflight <= 0.
	MaxQueue int
	// Breaker configures per-source circuit breakers and stale-extent
	// fallback on every session's query processor; the zero value
	// disables the fault-tolerance layer.
	Breaker query.BreakerConfig
	// RequireFresh makes every degraded answer (one evaluated over
	// stale fallback extents because a source was unreachable) an error
	// instead of a warning, server-wide. Individual requests opt in
	// with require_fresh / the X-Require-Fresh header.
	RequireFresh bool
	// MinFederatedSources, when > 0, lets /federate proceed with the
	// reachable subset of a session's sources as long as at least this
	// many answer a liveness probe; skipped sources are backfilled by
	// later probes. 0 requires every source (strict federation).
	MinFederatedSources int
	// ProbeInterval rate-limits the background recovery probe (open
	// breakers, skipped federation sources) that health checks trigger;
	// <= 0 means the default (5s).
	ProbeInterval time.Duration
	// Logger receives structured access and error logs; nil discards
	// them (library embedding and tests stay quiet).
	Logger *slog.Logger
}

// configure applies the settings to a session's query processor and
// has it cache its extents in the daemon's stores; it is the only place
// one is configured (federation and restore call it). Streaming window
// and SQL page size are not settings: query and wrapper choose them
// themselves.
func (cfg Config) configure(p *query.Processor, extents *query.Stores) {
	p.MaxSteps = cfg.MaxSteps
	p.SetBreaker(cfg.Breaker)
	p.UseStores(extents)
}

// caches are the daemon's cache layers, one of each, shared by every
// session and bounded by Config.CacheBytes each.
type caches struct {
	plans   *cache.Store[plan]
	results *cache.Map[answerKey, struct{}, Answer]
	extents *query.Stores
}

func newCaches(budget int64) *caches {
	return &caches{
		plans:   cache.New[plan](cache.Options{MaxBytes: budget}),
		results: cache.NewMap[answerKey, struct{}, Answer](cache.Options{MaxBytes: budget}),
		extents: query.NewStores(budget),
	}
}

// defaultProbeInterval rate-limits health-check-triggered recovery
// probes when the config does not.
const defaultProbeInterval = 5 * time.Second

// traceRingSize bounds the /debug/traces ring of recent query traces.
const traceRingSize = 256

// DefaultConfig returns the configuration the daemon ships: automedd
// registers its flags from these values, so a default is written here
// and nowhere else.
func DefaultConfig() Config {
	return Config{
		CacheBytes:   256 << 20,
		QueryTimeout: 30 * time.Second,
		MaxInflight:  256,
		MaxQueue:     1024,
		Breaker: query.BreakerConfig{
			Enabled:       true,
			SourceTimeout: 10 * time.Second,
			OpenFor:       2 * time.Second,
		},
		ProbeInterval: defaultProbeInterval,
	}
}

// Server is the HTTP/JSON dataspace service: a registry of integration
// sessions, the caches they share, and metrics. Obtain the routed
// handler with Handler.
type Server struct {
	cfg     Config
	reg     *Registry
	metrics *Metrics
	traces  *obs.Ring
	adm     *admission
	log     *slog.Logger
	mux     *http.ServeMux
	// persistMu serialises persistence per session: one session's
	// export+save is one critical section and its load+replace another,
	// so that a snapshot of older state can never be renamed over a
	// newer one, and a freshly restored session cannot be clobbered by
	// the autosave of the in-memory session it replaced — while two
	// different sessions never wait for each other (a restore is tens of
	// milliseconds and an autosave ends in an fsync; a pay-as-you-go
	// client does one or the other every few requests). The lock is
	// found by session name, not kept on the Session: a restore replaces
	// that object, and the save it must exclude belongs to the old one.
	// A fixed table of stripes keyed by a hash of the name keeps it
	// bounded however many sessions come and go (lockSession, store.go).
	persistMu   [persistStripes]sync.Mutex
	persistSeed maphash.Seed
	// store, when non-nil, makes sessions durable: every mutating
	// endpoint autosaves, and the snapshot/restore endpoints are live.
	// OpenStore publishes it; every operation reads it once.
	store atomic.Pointer[Store]
	// probeWG tracks in-flight background recovery probes so Drain can
	// wait for them; probeGate (unix nanos of the last probe) rate-limits
	// their launch to one per ProbeInterval.
	probeWG   sync.WaitGroup
	probeGate atomic.Int64
}

// New builds a server.
func New(cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(cfg),
		metrics: NewMetrics(),
		traces:  obs.NewRing(traceRingSize),
		adm:     newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		log:     logger,
		mux:     http.NewServeMux(),

		persistSeed: maphash.MakeSeed(),
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /sources", s.handleSources)
	s.mux.HandleFunc("POST /federate", s.handleFederate)
	s.mux.HandleFunc("POST /intersect", s.handleIntersect)
	s.mux.HandleFunc("POST /refine", s.handleRefine)
	s.mux.HandleFunc("GET /schemas", s.handleSchemas)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /report", s.handleReport)
	s.mux.HandleFunc("POST /suggest", s.handleSuggest)
	s.mux.HandleFunc("GET /sessions", s.handleSessions)
	s.mux.HandleFunc("POST /sessions/{name}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /sessions/{name}/restore", s.handleRestore)
	s.mux.HandleFunc("POST /sessions/{name}/invalidate", s.handleInvalidate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
}

// Handler returns the routed HTTP handler wrapped in the observability
// middleware: request accounting, a per-request ID (inbound
// X-Request-ID or generated) echoed in the X-Request-ID response
// header and error bodies, the per-source metrics registry on the
// context, panic recovery (a handler panic is logged with its stack,
// counted, and answered with a 500 JSON error instead of a dropped
// connection), and a structured access log.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Request()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		ctx := withRequestID(r.Context(), rid)
		ctx = obs.WithSources(ctx, s.metrics.Sources())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			rec := recover()
			if rec != nil {
				if rec == http.ErrAbortHandler {
					// The deliberate connection-abort sentinel; let
					// net/http handle it.
					panic(rec)
				}
				s.metrics.Panic()
				s.log.Error("panic in handler",
					"method", r.Method,
					"path", r.URL.Path,
					"request_id", rid,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()),
				)
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError, apiError{Error: "internal server error", RequestID: rid})
				}
			}
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"dur_ms", float64(time.Since(start).Microseconds())/1000,
				"request_id", rid,
			)
		}()
		s.mux.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// statusWriter captures the response status for the access log and
// whether anything was written yet (so panic recovery knows if a 500
// can still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// maybeProbe launches one background recovery probe — open breakers
// get a probe fetch, federation-skipped sources are backfilled — if
// none ran in the last ProbeInterval. Health checks call it, so any
// monitoring loop doubles as the recovery driver without a dedicated
// timer goroutine; Drain waits for in-flight probes via probeWG.
func (s *Server) maybeProbe() {
	interval := s.cfg.ProbeInterval
	if interval <= 0 {
		interval = defaultProbeInterval
	}
	now := time.Now().UnixNano()
	last := s.probeGate.Load()
	if now-last < int64(interval) || !s.probeGate.CompareAndSwap(last, now) {
		return
	}
	// A health check that read Draining false may get here after Drain
	// began: count the probe only while Drain cannot yet be waiting (a
	// WaitGroup's Add from zero must not race its Wait).
	if !s.adm.unlessDraining(func() { s.probeWG.Add(1) }) {
		return
	}
	sessions := s.reg.All()
	go func() {
		defer s.probeWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		defer cancel()
		for _, sess := range sessions {
			if n := sess.Probe(ctx); n > 0 {
				s.log.Info("sources recovered", "session", sess.Name(), "count", n)
			}
		}
	}()
}

// newRequestID returns a 16-hex-char random request identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// Metrics exposes the server's metrics (for embedding and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Sessions exposes the session registry (for embedding and tests).
func (s *Server) Sessions() *Registry { return s.reg }
