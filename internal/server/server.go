package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/query"
)

// Config tunes the dataspace server.
type Config struct {
	// PlanCacheSize bounds the shared cache of parsed IQL plans;
	// <= 0 disables plan caching.
	PlanCacheSize int
	// ResultCacheSize bounds each session's query-result cache;
	// <= 0 disables result caching.
	ResultCacheSize int
	// CacheBytes is the byte budget applied to each size-aware cache
	// layer per session (query results, extent memo, source extents);
	// LRU entries are evicted beyond it. <= 0 means unbounded.
	CacheBytes int64
	// QueryTimeout is the default per-query evaluation deadline;
	// requests may shorten it via timeout_ms. 0 means no deadline.
	QueryTimeout time.Duration
	// MaxSteps bounds IQL evaluation steps per query (a defence
	// against runaway comprehensions); 0 means unlimited.
	MaxSteps int
	// EvalParallelism is the worker count for data-parallel sharded
	// comprehension evaluation: 0 picks GOMAXPROCS, 1 forces serial
	// evaluation, larger values set the pool width explicitly.
	EvalParallelism int
	// ScanBuffer is the streaming extent pipeline's row window per
	// session: source extents above it stream through a bounded buffer
	// of this many rows instead of materialising. 0 picks the package
	// default (4096 rows); negative disables streaming.
	ScanBuffer int
	// FetchPageRows is the LIMIT/OFFSET page size SQL sources created
	// through /sources fetch with; 0 picks the wrapper default (4096
	// rows), negative disables paging for those sources.
	FetchPageRows int
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
	// SessionWeight, when set, gives some sessions more than one grant
	// per fair-queue round-robin turn; nil weights every session 1.
	SessionWeight func(session string) int
	// TraceRingSize bounds the /debug/traces ring of recent query
	// traces; <= 0 means the default (256).
	TraceRingSize int
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

// sessionSettings projects the per-session knobs out of the config.
func (cfg Config) sessionSettings() SessionSettings {
	return SessionSettings{
		ResultCapacity:      cfg.ResultCacheSize,
		CacheBytes:          cfg.CacheBytes,
		MaxSteps:            cfg.MaxSteps,
		EvalParallelism:     cfg.EvalParallelism,
		ScanBuffer:          cfg.ScanBuffer,
		Breaker:             cfg.Breaker,
		MinFederatedSources: cfg.MinFederatedSources,
	}
}

// defaultProbeInterval rate-limits health-check-triggered recovery
// probes when the config does not.
const defaultProbeInterval = 5 * time.Second

// defaultTraceRingSize bounds /debug/traces when the config does not.
const defaultTraceRingSize = 256

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		PlanCacheSize:   512,
		ResultCacheSize: 4096,
		CacheBytes:      256 << 20,
		QueryTimeout:    30 * time.Second,
		TraceRingSize:   defaultTraceRingSize,
		Breaker: query.BreakerConfig{
			Enabled:       true,
			SourceTimeout: 10 * time.Second,
		},
		ProbeInterval: defaultProbeInterval,
	}
}

// Server is the HTTP/JSON dataspace service: a registry of integration
// sessions, a shared plan cache, per-session result caches, and
// metrics. Obtain the routed handler with Handler.
type Server struct {
	cfg     Config
	reg     *Registry
	plans   *cache.Store[plan]
	metrics *Metrics
	traces  *obs.Ring
	adm     *admission
	log     *slog.Logger
	mux     *http.ServeMux
	// persistMu serialises all access to the store — opening it,
	// export+save, and load+replace — so that a snapshot of older
	// state can never be renamed over a newer one, and a freshly
	// restored session cannot be clobbered by the autosave of the
	// in-memory session it replaced. Saves happen only on mutating
	// endpoints, so one server-wide mutex is not a throughput concern.
	persistMu sync.Mutex
	// store, when non-nil, makes sessions durable: every mutating
	// endpoint autosaves, and the snapshot/restore endpoints are live.
	// Guarded by persistMu.
	store *Store
	// probeWG tracks in-flight background recovery probes so Drain can
	// wait for them; probeGate (unix nanos of the last probe) rate-limits
	// their launch to one per ProbeInterval.
	probeWG   sync.WaitGroup
	probeGate atomic.Int64
}

// New builds a server.
func New(cfg Config) *Server {
	ring := cfg.TraceRingSize
	if ring <= 0 {
		ring = defaultTraceRingSize
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg: cfg,
		reg: NewRegistry(cfg.sessionSettings()),
		plans: cache.New[plan](cache.Options{
			MaxEntries: cfg.PlanCacheSize,
			MaxBytes:   cfg.CacheBytes,
			Disabled:   cfg.PlanCacheSize <= 0,
		}),
		metrics: NewMetrics(),
		traces:  obs.NewRing(ring),
		adm:     newAdmission(cfg.MaxInflight, cfg.MaxQueue, cfg.SessionWeight),
		log:     logger,
		mux:     http.NewServeMux(),
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
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					json.NewEncoder(sw).Encode(apiError{
						Error:     "internal server error",
						RequestID: rid,
					})
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
	sessions := s.reg.All()
	s.probeWG.Add(1)
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

// OpenStore enables durable sessions: snapshots are written to dir
// (created if needed), every mutating endpoint autosaves its session,
// and the explicit snapshot/restore endpoints become available.
func (s *Server) OpenStore(dir string) error {
	st, err := NewStore(dir)
	if err != nil {
		return err
	}
	s.persistMu.Lock()
	s.store = st
	s.persistMu.Unlock()
	return nil
}

// Store returns the open session store, or nil when persistence is
// disabled.
func (s *Server) Store() *Store {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.store
}

// RestoreSessions loads every session snapshot in the store into the
// registry (replacing same-named sessions) and returns how many were
// restored. Call it once at startup, after OpenStore.
func (s *Server) RestoreSessions() (int, error) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.store == nil {
		return 0, errStoreClosed
	}
	states, err := s.store.LoadAll()
	if err != nil {
		return 0, err
	}
	for _, state := range states {
		sess, err := sessionFromState(state, s.cfg.sessionSettings())
		if err != nil {
			return 0, err
		}
		s.reg.Put(sess)
		s.metrics.SessionRestore()
	}
	return len(states), nil
}

// SnapshotSession forces a durable snapshot of one named session,
// counting the outcome in metrics and returning the session it
// exported. It is the programmatic form of POST
// /sessions/{name}/snapshot.
func (s *Server) SnapshotSession(name string) (*Session, error) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.store == nil {
		return nil, errStoreClosed
	}
	sess, err := s.reg.Get(name, false)
	if err != nil {
		return nil, err
	}
	state, err := sess.Export()
	if err == nil {
		err = s.store.Save(state)
	}
	if err != nil {
		s.metrics.SnapshotError()
		return nil, err
	}
	s.metrics.SnapshotWritten()
	return sess, nil
}

// restoreSession loads one session from the store and installs it in
// the registry, all under the persist lock so no concurrent autosave
// interleaves between the read and the swap.
func (s *Server) restoreSession(name string) (*Session, error) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.store == nil {
		return nil, errStoreClosed
	}
	state, err := s.store.Load(name)
	if err != nil {
		return nil, err
	}
	if state.Name != name {
		return nil, fmt.Errorf("%w: %s is for session %q, not %q", errBadSnapshot, fileName(name), state.Name, name)
	}
	sess, err := sessionFromState(state, s.cfg.sessionSettings())
	if err != nil {
		return nil, err
	}
	s.reg.Put(sess)
	s.metrics.SessionRestore()
	return sess, nil
}

// errStoreClosed distinguishes "persistence disabled" from genuine
// store failures across the snapshot/restore paths.
var errStoreClosed = fmt.Errorf("server: persistence is not enabled (start with -data-dir)")

// persist autosaves one session if a store is open. The in-memory
// mutation has already succeeded by the time persist runs, so failures
// are not surfaced to the client; they are logged and counted in
// metrics (snapshot_errors), and the previous on-disk snapshot stays
// intact thanks to the atomic rename.
func (s *Server) persist(sess *Session) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.store == nil {
		return
	}
	// Skip orphaned sessions: if a restore replaced this session after
	// its mutation, the name now belongs to the restored state and this
	// session's snapshot must not overwrite it.
	if cur, err := s.reg.Get(sess.Name(), false); err != nil || cur != sess {
		return
	}
	state, err := sess.Export()
	if err == nil {
		err = s.store.Save(state)
	}
	if err != nil {
		s.metrics.SnapshotError()
		s.log.Error("autosave failed", "session", sess.Name(), "error", err)
		return
	}
	s.metrics.SnapshotWritten()
}

// Metrics exposes the server's metrics (for embedding and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Sessions exposes the session registry (for embedding and tests).
func (s *Server) Sessions() *Registry { return s.reg }

// PurgePlans empties the shared plan cache (used by benchmarks to
// measure cold-plan query cost).
func (s *Server) PurgePlans() { s.plans.Purge() }

// sourceHealth collects every session's per-source breaker state for
// the metrics endpoint, in stable (session, source) order.
func (s *Server) sourceHealth() []SessionSourceHealth {
	var out []SessionSourceHealth
	for _, name := range s.reg.Names() {
		sess, err := s.reg.Get(name, false)
		if err != nil {
			continue
		}
		for _, h := range sess.SourceHealth() {
			out = append(out, SessionSourceHealth{Session: name, SourceHealth: h})
		}
	}
	return out
}

// resultStats sums result-cache stats across all sessions.
func (s *Server) resultStats() CacheStats {
	var sum CacheStats
	for _, sess := range s.reg.All() {
		addStats(&sum, sess.ResultCacheStats())
	}
	return sum
}

// evalStats sums sharded-evaluation counters across all sessions and
// attaches the effective pool settings.
func (s *Server) evalStats() EvalSnapshot {
	eval := EvalSnapshot{Parallelism: s.cfg.EvalParallelism}
	if eval.Parallelism <= 0 {
		eval.Parallelism = runtime.GOMAXPROCS(0)
	}
	for _, sess := range s.reg.All() {
		st := sess.ParallelStats()
		eval.ParallelEvals += st.ParallelEvals
		eval.SerialEvals += st.SerialEvals
		eval.Shards += st.Shards
	}
	return eval
}

// extentStats sums the query processors' extent-memo and source-extent
// cache stats across all sessions.
func (s *Server) extentStats() (memo, src CacheStats) {
	var m, sc CacheStats
	for _, sess := range s.reg.All() {
		mm, ss := sess.ExtentCacheStats()
		addStats(&m, mm)
		addStats(&sc, ss)
	}
	return m, sc
}

func addStats(dst *CacheStats, st CacheStats) {
	dst.Len += st.Len
	dst.Capacity += st.Capacity
	dst.Bytes += st.Bytes
	dst.MaxBytes += st.MaxBytes
	dst.Hits += st.Hits
	dst.Misses += st.Misses
	dst.Evictions += st.Evictions
	dst.Invalidations += st.Invalidations
	dst.Oversize += st.Oversize
	dst.Purges += st.Purges
}
