// Command automedd is the dataspace daemon: it serves the paper's
// pay-as-you-go intersection-schema workflow over HTTP/JSON so that
// clients can register sources, federate, intersect iteratively, and
// query any published global schema version while integration proceeds.
//
// Endpoints (all JSON unless noted):
//
//	POST /sources    register a data source (inline rows or a CSV dir)
//	POST /federate   build the federated schema (version 0)
//	POST /intersect  one integration iteration from a mappings table
//	POST /refine     ad-hoc single-schema refinement
//	GET  /schemas    every published global schema version
//	POST /query      IQL over any live version (explain, timeout_ms)
//	GET  /report     effort report (manual vs automatic steps)
//	POST /suggest    schema-matcher correspondence suggestions
//	GET  /sessions   live integration sessions
//	POST /sessions/{name}/snapshot   force a durable snapshot
//	POST /sessions/{name}/restore    reload a session from disk
//	POST /sessions/{name}/invalidate drop cached extents and answers
//	GET  /healthz    liveness, breaker states, skipped sources
//	GET  /metrics    Prometheus text exposition (JSON via Accept/format)
//	GET  /debug/traces  recent query traces (requested + slow queries)
//
// With -data-dir the daemon is durable: every session snapshot lives
// in that directory as one JSON file, every mutating endpoint
// autosaves, and on startup every stored session is restored, so a
// restarted daemon serves every previously published schema version
// identically.
//
// Optionally preload sources with repeatable flags — CSV directories
// (-source name=dir), SQL backends (-sql-source
// name=driver:dialect:dsn; the driver must be compiled into the
// binary), and JSON/REST endpoints (-rest-source name=url); they are
// registered into the default session and federated at startup so the
// daemon is immediately queryable. Preloading is skipped when a
// restored "default" session already exists. Remote sources can also
// be registered at runtime through the sql/rest variants of POST
// /sources.
//
// Observability: logs are structured (-log-format text|json), every
// request carries an X-Request-ID, queries slower than -slow-query are
// traced into GET /debug/traces, and -debug-addr serves net/http/pprof
// on a separate listener.
//
// Under load the daemon admits at most -max-inflight requests at a
// time, parks the overflow in a bounded per-session fair queue
// (-max-queue) served deficit round-robin, and sheds the rest with
// 429 + Retry-After. On SIGTERM/SIGINT it drains gracefully within
// -drain-timeout: /healthz flips to 503 draining, in-flight requests
// finish, and every session is snapshotted before exit.
//
// Fault tolerance: every source fetch runs behind a per-source circuit
// breaker with a -source-timeout deadline budget; while a source is
// down, queries are answered from its last-known-good extent with a
// structured "degraded:" warning (disable the breakers with
// -breaker=false, or reject stale answers daemon-wide with
// -require-fresh). -min-federated-sources lets startup federation
// proceed with the reachable subset of sources. For chaos drills,
// -fault-source preloads a demo source wrapped in a deterministic
// fault injector (spec: comma-separated error-rate=0.3, latency=50ms,
// hang, flap-up=4, flap-down=2, amplify=8, seed=7).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/wrapper"
)

// sourceFlags collects repeatable name=value source flags.
type sourceFlags []string

func (s *sourceFlags) String() string { return strings.Join(*s, ",") }

func (s *sourceFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=spec, got %q", v)
	}
	*s = append(*s, v)
	return nil
}

// parseSQLSpec splits a -sql-source value: name=driver:dialect:dsn.
// The DSN comes last so its own colons survive; an empty dialect
// segment selects the default (sqlite).
func parseSQLSpec(v string) (name string, cfg wrapper.SQLConfig, err error) {
	name, rest, _ := strings.Cut(v, "=")
	parts := strings.SplitN(rest, ":", 3)
	if name == "" || len(parts) != 3 || parts[0] == "" || parts[2] == "" {
		return "", wrapper.SQLConfig{}, fmt.Errorf("want name=driver:dialect:dsn, got %q", v)
	}
	return name, wrapper.SQLConfig{Driver: parts[0], Dialect: parts[1], DSN: parts[2]}, nil
}

// newLogger builds the daemon's structured logger.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("automedd: -log-format must be text or json, got %q", format)
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		planCache   = flag.Int("plan-cache", 512, "max cached parsed IQL plans (0 disables)")
		resultCache = flag.Int("result-cache", 4096, "max cached query results per session (0 disables)")
		cacheBytes  = flag.Int64("cache-bytes", 256<<20, "byte budget per cache layer per session: results, extent memo, source extents (0 = unbounded)")
		timeout     = flag.Duration("query-timeout", 30*time.Second, "default per-query evaluation deadline (0 = none)")
		maxSteps    = flag.Int("max-steps", 0, "IQL evaluation step bound per query (0 = unlimited)")
		evalPar     = flag.Int("eval-parallelism", 0, "worker count for data-parallel sharded comprehension evaluation (0 = GOMAXPROCS, 1 = serial)")
		scanBuffer  = flag.Int("scan-buffer", 0, "streaming extent pipeline row window: extents above it stream through a bounded buffer instead of materialising (0 = default 4096, negative disables streaming)")
		fetchPage   = flag.Int("fetch-page-rows", 0, "LIMIT/OFFSET page size for SQL source fetches (0 = default 4096, negative disables paging)")
		dataDir     = flag.String("data-dir", "", "directory for durable session snapshots (empty = in-memory only)")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		slowQuery   = flag.Duration("slow-query", 0, "trace queries at or above this duration into /debug/traces (0 = only explicitly requested traces)")
		traceRing   = flag.Int("trace-ring", 256, "retained recent query traces served by /debug/traces")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		maxInflight = flag.Int("max-inflight", 256, "max concurrently executing queries/integration steps (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 1024, "max requests parked in the admission queue before 429s (0 = reject at the in-flight limit)")
		drainTime   = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on SIGTERM before exit")
		breakerOn   = flag.Bool("breaker", true, "per-source circuit breakers with stale-extent fallback")
		srcTimeout  = flag.Duration("source-timeout", 10*time.Second, "per-source fetch deadline budget within each query (0 = none)")
		breakerOpen = flag.Duration("breaker-open-for", 2*time.Second, "base interval an open breaker waits before probing the source again")
		reqFresh    = flag.Bool("require-fresh", false, "reject degraded (stale-fallback) answers with 503 instead of serving them with a warning")
		minFedSrcs  = flag.Int("min-federated-sources", 0, "federate over the reachable subset of sources when at least this many answer a probe (0 = require all)")
		probeEvery  = flag.Duration("probe-interval", 5*time.Second, "min interval between health-check-triggered background probes of open breakers and skipped sources")
		preload     sourceFlags
		preloadSQL  sourceFlags
		preloadREST sourceFlags
		faultSrcs   sourceFlags
	)
	flag.Var(&preload, "source", "preload a CSV source as name=dir into the default session (repeatable)")
	flag.Var(&preloadSQL, "sql-source",
		"preload a SQL source as name=driver:dialect:dsn (dialect sqlite, information_schema or postgres, empty = sqlite; the driver must be compiled into this binary; repeatable)")
	flag.Var(&preloadREST, "rest-source", "preload a JSON/REST source as name=url (collections discovered from the endpoint root; repeatable)")
	flag.Var(&faultSrcs, "fault-source",
		"preload a fault-injected demo source as name=spec for chaos drills (spec: comma-separated error-rate=0.3, latency=50ms, hang, flap-up=4, flap-down=2, amplify=8, seed=7; repeatable)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	srv := server.New(server.Config{
		PlanCacheSize:   *planCache,
		ResultCacheSize: *resultCache,
		CacheBytes:      *cacheBytes,
		QueryTimeout:    *timeout,
		MaxSteps:        *maxSteps,
		EvalParallelism: *evalPar,
		ScanBuffer:      *scanBuffer,
		FetchPageRows:   *fetchPage,
		SlowQuery:       *slowQuery,
		TraceRingSize:   *traceRing,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		Breaker: query.BreakerConfig{
			Enabled:       *breakerOn,
			SourceTimeout: *srcTimeout,
			OpenFor:       *breakerOpen,
		},
		RequireFresh:        *reqFresh,
		MinFederatedSources: *minFedSrcs,
		ProbeInterval:       *probeEvery,
		Logger:              logger,
	})
	if *dataDir != "" {
		if err := srv.OpenStore(*dataDir); err != nil {
			fatal(logger, err)
		}
		n, err := srv.RestoreSessions()
		if err != nil {
			fatal(logger, fmt.Errorf("restoring sessions from %s: %w", *dataDir, err))
		}
		logger.Info("sessions restored", "count", n, "dir", *dataDir)
	}
	if err := preloadSources(srv, logger, *fetchPage, preload, preloadSQL, preloadREST, faultSrcs); err != nil {
		fatal(logger, err)
	}

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	// ServeGraceful blocks until ctx is cancelled (SIGINT/SIGTERM), then
	// drains: /healthz goes unready, queued requests get 503s, in-flight
	// work finishes under -drain-timeout, and sessions flush to the
	// store before exit.
	if err := srv.ServeGraceful(ctx, ln, *drainTime); err != nil {
		fatal(logger, err)
	}
}

// fatal logs the error and exits non-zero.
func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "error", err)
	os.Exit(1)
}

// serveDebug exposes net/http/pprof on its own mux and listener so the
// profiling surface never shares a port with the public API.
func serveDebug(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("pprof server failed", "error", err)
	}
}

// parseFaultSpec splits a -fault-source value: name=k=v[,k=v...] with
// keys error-rate, latency, hang, flap-up, flap-down, amplify, seed.
// An empty spec ("name=" or just "name") injects nothing until POST
// /sources or a restart reconfigures it.
func parseFaultSpec(v string) (name string, cfg wrapper.FaultConfig, err error) {
	name, rest, _ := strings.Cut(v, "=")
	if name == "" {
		return "", cfg, fmt.Errorf("want name=k=v[,k=v...], got %q", v)
	}
	if rest == "" {
		return name, cfg, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, val, _ := strings.Cut(kv, "=")
		var err error
		switch k {
		case "error-rate":
			cfg.ErrorRate, err = strconv.ParseFloat(val, 64)
		case "latency":
			cfg.Latency, err = time.ParseDuration(val)
		case "hang":
			cfg.Hang = true
		case "flap-up":
			cfg.FlapUp, err = strconv.Atoi(val)
		case "flap-down":
			cfg.FlapDown, err = strconv.Atoi(val)
		case "amplify":
			cfg.Amplify, err = strconv.Atoi(val)
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return "", wrapper.FaultConfig{}, fmt.Errorf("fault source %q: %s: %v", name, kv, err)
		}
	}
	return name, cfg, nil
}

// demoFaultSource builds the inline demo table a -fault-source wraps:
// enough rows to make degraded answers visibly non-empty.
func demoFaultSource(name string) (wrapper.Wrapper, error) {
	db := rel.NewDB(name)
	t, err := db.CreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "label", Type: rel.String},
	}, "id")
	if err != nil {
		return nil, err
	}
	for i := 1; i <= 8; i++ {
		if err := t.Insert(int64(i), fmt.Sprintf("item-%d", i)); err != nil {
			return nil, err
		}
	}
	return wrapper.NewRelational(name, db)
}

// preloadSources wraps each preloaded CSV, SQL, REST and fault-demo
// source into the default session and federates so the daemon starts
// queryable.
func preloadSources(srv *server.Server, logger *slog.Logger, fetchPageRows int, csvSpecs, sqlSpecs, restSpecs, faultSpecs sourceFlags) error {
	total := len(csvSpecs) + len(sqlSpecs) + len(restSpecs) + len(faultSpecs)
	if total == 0 {
		return nil
	}
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		return err
	}
	if sess.Federated() || len(sess.SourceNames()) > 0 {
		logger.Info("default session restored from data dir; skipping source preload")
		return nil
	}
	for _, spec := range csvSpecs {
		name, dir, _ := strings.Cut(spec, "=")
		w, err := wrapper.NewCSVDir(name, dir)
		if err != nil {
			return fmt.Errorf("preloading %s: %w", spec, err)
		}
		if err := sess.AddSource(w); err != nil {
			return err
		}
		logger.Info("source preloaded", "source", name, "dir", dir)
	}
	for _, spec := range sqlSpecs {
		name, cfg, err := parseSQLSpec(spec)
		if err != nil {
			return err
		}
		cfg.FetchPageRows = fetchPageRows
		w, err := wrapper.NewSQL(name, cfg)
		if err != nil {
			return fmt.Errorf("preloading %s: %w", spec, err)
		}
		if err := sess.AddSource(w); err != nil {
			return err
		}
		logger.Info("SQL source preloaded", "source", name, "driver", cfg.Driver)
	}
	for _, spec := range restSpecs {
		name, endpoint, _ := strings.Cut(spec, "=")
		w, err := wrapper.NewREST(name, wrapper.RESTConfig{Endpoint: endpoint})
		if err != nil {
			return fmt.Errorf("preloading %s: %w", spec, err)
		}
		if err := sess.AddSource(w); err != nil {
			return err
		}
		logger.Info("REST source preloaded", "source", name, "endpoint", endpoint)
	}
	for _, spec := range faultSpecs {
		name, cfg, err := parseFaultSpec(spec)
		if err != nil {
			return err
		}
		inner, err := demoFaultSource(name)
		if err != nil {
			return fmt.Errorf("preloading %s: %w", spec, err)
		}
		w, err := wrapper.NewFault(inner, cfg)
		if err != nil {
			return fmt.Errorf("preloading %s: %w", spec, err)
		}
		if err := sess.AddSource(w); err != nil {
			return err
		}
		logger.Info("fault source preloaded", "source", name, "config", cfg)
	}
	fctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sess.Federate(fctx, "F", false); err != nil {
		return err
	}
	if skipped := sess.Skipped(); len(skipped) > 0 {
		logger.Warn("federated without unreachable sources", "skipped", skipped)
	}
	logger.Info("sources federated", "count", total, "schema", "F", "version", 0)
	if srv.Store() != nil {
		if _, err := srv.SnapshotSession(sess.Name()); err != nil {
			return fmt.Errorf("persisting preloaded session: %w", err)
		}
	}
	return nil
}
