// Command automedd is the dataspace daemon: it serves the paper's
// pay-as-you-go intersection-schema workflow over HTTP/JSON so that
// clients can register sources, federate, intersect iteratively, and
// query any published global schema version while integration proceeds.
//
// Endpoints (all JSON unless noted):
//
//	POST /sources    register a data source (inline rows, CSV dir, SQL, REST, fault)
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
//	POST /sessions/{name}/invalidate retire cached extents and answers
//	GET  /healthz    liveness, breaker states, skipped sources
//	GET  /metrics    Prometheus text exposition (JSON via Accept/format)
//	GET  /debug/traces  recent query traces (requested + slow queries)
//
// Settings. Every tunable flag is registered from server.DefaultConfig()
// and parses straight into the server.Config the server is built from,
// so `automedd -h` prints the configuration the daemon ships and the
// benchmark measures. The caches' byte budget (-cache-bytes), the
// per-query bounds (-query-timeout, -max-steps), admission control
// (-max-inflight requests run, -max-queue park in a per-session fair
// queue, the rest get 429 + Retry-After), fault tolerance (-breaker,
// -source-timeout, -breaker-open-for, -require-fresh,
// -min-federated-sources, -probe-interval) and -slow-query tracing are
// such settings. Streamed or materialised scans and the SQL page size
// are not: the evaluator and the wrappers choose them from what they
// observe.
//
// The remaining flags place the daemon. -addr and -debug-addr (pprof on
// its own listener) say where it listens; -log-format how it logs; with
// -data-dir every mutating endpoint autosaves its session as one JSON
// file and a restarted daemon restores them all; on SIGTERM/SIGINT it
// drains within -drain-timeout (/healthz 503, in-flight work finishes,
// sessions are snapshotted). -source name=dir, -sql-source
// name=driver:dialect:dsn (driver compiled in), -rest-source name=url
// and -fault-source name=spec (a demo source behind a deterministic
// fault injector: error-rate=0.3, latency=50ms, hang, flap-up=4,
// flap-down=2, amplify=8, seed=7) preload the default session and
// federate it at startup, unless a restored "default" already exists.
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

// options are the flags that place the daemon rather than tune the
// server: listeners, state directory, logging, drain grace, preloads.
type options struct {
	addr, dataDir, logFormat, debugAddr string
	drainTimeout                        time.Duration
	csv, sql, rest, fault               sourceFlags
}

// registerFlags declares every daemon flag on fs. The tunables are
// registered from cfg — which main seeds with server.DefaultConfig() —
// so a flag's default is the field's value and is written nowhere else,
// and parsing writes straight into the config the server is built from.
func registerFlags(fs *flag.FlagSet, cfg *server.Config) *options {
	opt := new(options)
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", cfg.CacheBytes, "byte budget of each of the daemon's caches, least recently used evicted first: plans, results, extent memo, source extents, and join indexes and runs, each one per daemon and shared by every session; the caches' only bound but the join-index layer's fixed entry cap (0 = unbounded)")
	fs.DurationVar(&cfg.QueryTimeout, "query-timeout", cfg.QueryTimeout, "default per-query evaluation deadline (0 = none)")
	fs.IntVar(&cfg.MaxSteps, "max-steps", cfg.MaxSteps, "IQL evaluation step bound per query (0 = unlimited)")
	fs.DurationVar(&cfg.SlowQuery, "slow-query", cfg.SlowQuery, "trace queries at or above this duration into /debug/traces (0 = only explicitly requested traces)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight, "max concurrently executing queries/integration steps (0 = unlimited)")
	fs.IntVar(&cfg.MaxQueue, "max-queue", cfg.MaxQueue, "max requests parked in the admission queue before 429s (0 = reject at the in-flight limit)")
	fs.BoolVar(&cfg.Breaker.Enabled, "breaker", cfg.Breaker.Enabled, "per-source circuit breakers with stale-extent fallback")
	fs.DurationVar(&cfg.Breaker.SourceTimeout, "source-timeout", cfg.Breaker.SourceTimeout, "per-source fetch deadline budget within each query (0 = none)")
	fs.DurationVar(&cfg.Breaker.OpenFor, "breaker-open-for", cfg.Breaker.OpenFor, "base interval an open breaker waits before probing the source again")
	fs.BoolVar(&cfg.RequireFresh, "require-fresh", cfg.RequireFresh, "reject degraded (stale-fallback) answers with 503 instead of serving them with a warning")
	fs.IntVar(&cfg.MinFederatedSources, "min-federated-sources", cfg.MinFederatedSources, "federate over the reachable subset of sources when at least this many answer a probe (0 = require all)")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", cfg.ProbeInterval, "min interval between health-check-triggered background probes of open breakers and skipped sources")

	fs.StringVar(&opt.addr, "addr", ":8080", "listen address")
	fs.StringVar(&opt.dataDir, "data-dir", "", "directory for durable session snapshots (empty = in-memory only)")
	fs.StringVar(&opt.logFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&opt.debugAddr, "debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	fs.DurationVar(&opt.drainTimeout, "drain-timeout", 15*time.Second, "grace period for in-flight requests on SIGTERM before exit")
	fs.Var(&opt.csv, "source", "preload a CSV source as name=dir into the default session (repeatable)")
	fs.Var(&opt.sql, "sql-source",
		"preload a SQL source as name=driver:dialect:dsn (dialect sqlite, information_schema or postgres, empty = sqlite; the driver must be compiled into this binary; repeatable)")
	fs.Var(&opt.rest, "rest-source", "preload a JSON/REST source as name=url (collections discovered from the endpoint root; repeatable)")
	fs.Var(&opt.fault, "fault-source",
		"preload a fault-injected demo source as name=spec for chaos drills (spec: comma-separated error-rate=0.3, latency=50ms, hang, flap-up=4, flap-down=2, amplify=8, seed=7; repeatable)")
	return opt
}

func main() {
	cfg := server.DefaultConfig()
	opt := registerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	logger, err := newLogger(opt.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	cfg.Logger = logger

	srv := server.New(cfg)
	if opt.dataDir != "" {
		if err := srv.OpenStore(opt.dataDir); err != nil {
			fatal(logger, err)
		}
		n, err := srv.RestoreSessions()
		if err != nil {
			fatal(logger, fmt.Errorf("restoring sessions from %s: %w", opt.dataDir, err))
		}
		logger.Info("sessions restored", "count", n, "dir", opt.dataDir)
	}
	if err := preloadSources(srv, logger, opt.csv, opt.sql, opt.rest, opt.fault); err != nil {
		fatal(logger, err)
	}

	if opt.debugAddr != "" {
		go serveDebug(logger, opt.debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	// ServeGraceful blocks until ctx is cancelled (SIGINT/SIGTERM), then
	// drains: /healthz goes unready, queued requests get 503s, in-flight
	// work finishes under -drain-timeout, and sessions flush to the
	// store before exit.
	if err := srv.ServeGraceful(ctx, ln, opt.drainTimeout); err != nil {
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
	rows := []byte("[")
	for i := 1; i <= 8; i++ {
		if i > 1 {
			rows = append(rows, ',')
		}
		rows = fmt.Appendf(rows, `[%d,"item-%d"]`, i, i)
	}
	return wrapper.Restore(&wrapper.Snapshot{Kind: "relational", Name: name, Tables: []wrapper.TableSnapshot{{
		Name: "items", Columns: []string{"id:int", "label:string"}, PrimaryKey: "id", Rows: append(rows, ']'),
	}}})
}

// preloadSources wraps each preloaded CSV, SQL, REST and fault-demo
// source into the default session and federates so the daemon starts
// queryable.
func preloadSources(srv *server.Server, logger *slog.Logger, csvSpecs, sqlSpecs, restSpecs, faultSpecs sourceFlags) error {
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
	// add registers one wrapped preload, or says why it could not be
	// built. (The spec is not logged: a SQL one carries its DSN.)
	add := func(kind, spec string, w wrapper.Wrapper, err error) error {
		if err != nil {
			return fmt.Errorf("preloading %s: %w", spec, err)
		}
		if err := sess.AddSource(w); err != nil {
			return err
		}
		logger.Info("source preloaded", "kind", kind, "source", w.SchemaName())
		return nil
	}
	for _, spec := range csvSpecs {
		name, dir, _ := strings.Cut(spec, "=")
		w, err := wrapper.NewCSVDir(name, dir)
		if err := add("csv", spec, w, err); err != nil {
			return err
		}
	}
	for _, spec := range sqlSpecs {
		name, cfg, err := parseSQLSpec(spec)
		if err != nil {
			return err
		}
		w, err := wrapper.NewSQL(name, cfg)
		if err := add("sql", spec, w, err); err != nil {
			return err
		}
	}
	for _, spec := range restSpecs {
		name, endpoint, _ := strings.Cut(spec, "=")
		w, err := wrapper.NewREST(name, wrapper.RESTConfig{Endpoint: endpoint})
		if err := add("rest", spec, w, err); err != nil {
			return err
		}
	}
	for _, spec := range faultSpecs {
		name, cfg, err := parseFaultSpec(spec)
		if err != nil {
			return err
		}
		w, err := demoFaultSource(name)
		if err == nil {
			w, err = wrapper.NewFault(w, cfg)
		}
		if err := add("fault", spec, w, err); err != nil {
			return err
		}
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
