package server

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/wrapper"
)

// Session is one live integration: registered sources, then — once
// federated — an Integrator over its published schema versions. A
// session holds no cache: its answers and its processor's extents are
// kept in the daemon's (caches), addressed by what derives them, so a
// session over the same source instances as another, or restored over
// the sources it took over, answers from what the other computed. A
// session's mutating workflow steps serialise with its queries via mu;
// queries additionally hold the integrator's read lock for their whole
// evaluation.
type Session struct {
	name   string
	cfg    Config
	caches *caches

	mu       sync.RWMutex
	wrappers []wrapper.Wrapper
	ig       *core.Integrator

	// file is what the session knows of its file in the store; nil when
	// its next save must be a checkpoint. Guarded by the session name's
	// persistence lock (Server.lockSession), not by mu.
	file *sessionFile
}

func newSession(name string, cfg Config, c *caches) *Session {
	return &Session{name: name, cfg: cfg, caches: c}
}

// Name returns the session name.
func (s *Session) Name() string { return s.name }

// Federated reports whether the session has built its federated schema
// (and is therefore queryable).
func (s *Session) Federated() bool { return s.version() >= 0 }

// Wrapper returns the registered source with the given schema name.
func (s *Session) Wrapper(name string) (wrapper.Wrapper, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, w := range s.wrappers {
		if w.SchemaName() == name {
			return w, true
		}
	}
	return nil, false
}

// SourceNames lists the registered sources in registration order.
func (s *Session) SourceNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.wrappers))
	for i, w := range s.wrappers {
		out[i] = w.SchemaName()
	}
	return out
}

// AddSource registers a wrapped data source. Sources must be registered
// before Federate.
func (s *Session) AddSource(w wrapper.Wrapper) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ig != nil {
		return fmt.Errorf("server: session %q is already federated; sources must be registered first", s.name)
	}
	for _, have := range s.wrappers {
		if have.SchemaName() == w.SchemaName() {
			return fmt.Errorf("server: session %q already has a source named %q", s.name, w.SchemaName())
		}
	}
	s.wrappers = append(s.wrappers, w)
	return nil
}

// Federate builds the integrator over the registered sources and
// publishes the federated schema (version 0). autoDrop elects
// redundant-object dropping for the global schemas rebuilt after each
// subsequent iteration. When the server's MinFederatedSources setting
// is > 0, sources are probed first and federation proceeds over the
// reachable subset (at least that many), recording the skipped sources
// for probe-driven backfill. The session is mutated only if federation
// succeeds.
func (s *Session) Federate(ctx context.Context, name string, autoDrop bool) (*core.Integrator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ig != nil {
		return nil, fmt.Errorf("server: session %q is already federated", s.name)
	}
	if len(s.wrappers) == 0 {
		return nil, fmt.Errorf("server: session %q has no registered sources", s.name)
	}
	ig, err := core.New(s.wrappers...)
	if err != nil {
		return nil, err
	}
	ig.SetAutoDrop(autoDrop)
	s.cfg.configure(ig.Processor(), s.caches.extents)
	if min := s.cfg.MinFederatedSources; min > 0 {
		if _, _, err := ig.FederateReachable(ctx, name, min); err != nil {
			return nil, err
		}
	} else if _, err := ig.Federate(name); err != nil {
		return nil, err
	}
	s.ig = ig
	return ig, nil
}

// Skipped lists the sources federation skipped as unreachable and has
// not yet backfilled.
func (s *Session) Skipped() []string {
	ig, err := s.integrator()
	if err != nil {
		return nil
	}
	return ig.Skipped()
}

// SourceHealth reports the per-source breaker states of the session's
// query processor; nil before federation or with breakers disabled.
func (s *Session) SourceHealth() []query.SourceHealth {
	ig, err := s.integrator()
	if err != nil {
		return nil
	}
	return ig.Processor().SourceHealth()
}

// Probe drives the session's recovery paths once: open breakers get a
// probe fetch (closing on success), and federation-skipped sources are
// re-probed and backfilled, which publishes a global schema version. It
// returns the number of sources that recovered. Safe to call
// concurrently with queries; a no-op before federation.
func (s *Session) Probe(ctx context.Context) int {
	ig, err := s.integrator()
	if err != nil {
		return 0
	}
	n := ig.Processor().ProbeOpen(ctx)
	if len(ig.Skipped()) > 0 {
		// A backfill defines the sources' federated objects: answers
		// over them are addressed anew. A probe reports how many
		// recovered; one that fails to answer stays skipped.
		recovered, _ := ig.Backfill(ctx)
		n += len(recovered)
	}
	return n
}

// InvalidateExtents retires every extent read from the session's
// sources, and every answer over them (query.Processor.InvalidateCache),
// forcing the next queries to re-fetch — in every session over the same
// source instances. This is the ops lever for fault drills and for data
// changed beside the daemon: cached extents otherwise shield a downed
// source from queries indefinitely. Before federation there is nothing
// cached.
func (s *Session) InvalidateExtents() {
	if ig, err := s.integrator(); err == nil {
		ig.Processor().InvalidateCache()
	}
}

// version returns the session's current global schema version, or -1
// before federation.
func (s *Session) version() int {
	ig, err := s.integrator()
	if err != nil {
		return -1
	}
	return ig.GlobalVersion()
}

// integrator returns the session's integrator, or an error before
// Federate.
func (s *Session) integrator() (*core.Integrator, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ig == nil {
		return nil, fmt.Errorf("server: session %q is not federated yet", s.name)
	}
	return s.ig, nil
}

// Intersect runs one integration iteration. The answers over the
// objects it derives are addressed anew; warm answers for untouched
// schemes stay live across the new schema version.
func (s *Session) Intersect(name string, mappings []core.Mapping, enables ...string) (*core.Intersection, error) {
	ig, err := s.integrator()
	if err != nil {
		return nil, err
	}
	return ig.Intersect(name, mappings, enables...)
}

// Refine applies an ad-hoc single-schema transformation; the answers
// over its target are addressed anew.
func (s *Session) Refine(name string, m core.Mapping, enables ...string) error {
	ig, err := s.integrator()
	if err != nil {
		return err
	}
	return ig.Refine(name, m, enables...)
}

// ResultCacheStats snapshots the result cache the session answers
// from: the daemon's.
func (s *Session) ResultCacheStats() CacheStats { return s.caches.results.Stats() }

// ExtentCacheStats snapshots the extent layers the session's processor
// fills — the virtual-extent memo and the source-extent cache — which
// are the daemon's.
func (s *Session) ExtentCacheStats() (memo, src CacheStats) {
	memo, src, _ = s.caches.extents.Stats()
	return memo, src
}

// Registry is the named-session table, and the caches its sessions
// share.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	cfg      Config
	caches   *caches
}

// NewRegistry returns an empty registry; every session it creates is
// configured from cfg, and shares caches bounded by cfg.CacheBytes.
func NewRegistry(cfg Config) *Registry {
	return &Registry{sessions: make(map[string]*Session), cfg: cfg, caches: newCaches(cfg.CacheBytes)}
}

// canonicalName is the name a session is registered, stored and locked
// under: the empty name stands for "default".
func canonicalName(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// Get returns the named session, creating it when create is set.
func (r *Registry) Get(name string, create bool) (*Session, error) {
	name = canonicalName(name)
	r.mu.RLock()
	s, ok := r.sessions[name]
	r.mu.RUnlock()
	if ok {
		return s, nil
	}
	if !create {
		return nil, fmt.Errorf("server: no session %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[name]; ok {
		return s, nil
	}
	s = newSession(name, r.cfg, r.caches)
	r.sessions[name] = s
	return s, nil
}

// Put installs (or replaces) a session under its name; used when
// restoring sessions from the store.
func (r *Registry) Put(sess *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions[sess.name] = sess
}

// All returns every registered session, sorted by name.
func (r *Registry) All() []*Session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}
