package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/fsatomic"
	"github.com/dataspace/automed/internal/wrapper"
)

// sessionState is the durable form of one server session: either a
// pre-federation source list or — once federated — the integrator's
// full snapshot (which carries the sources itself). One JSON file per
// session.
type sessionState struct {
	Format int    `json:"format"`
	Name   string `json:"name"`
	// Sources holds registered-but-not-yet-federated sources; once the
	// session federates they move inside Integrator.
	Sources []*wrapper.Snapshot `json:"sources,omitempty"`
	// Integrator is the full core snapshot; nil before Federate.
	Integrator *core.Snapshot `json:"integrator,omitempty"`
}

// storeFormat is the session-file format version.
const storeFormat = 1

// errBadSnapshot marks a snapshot file that exists but cannot be used
// (malformed JSON, wrong format version, missing or mismatched name) —
// a client/operational condition, distinct from I/O failures.
var errBadSnapshot = errors.New("server: unusable session snapshot")

// Store persists sessions as one JSON file per session in a directory.
//
// Durability contract: each save writes a temporary file in the same
// directory, fsyncs it, and renames it over the destination. A crash
// mid-write therefore never truncates or corrupts an existing snapshot
// — the worst case is serving the previous one. The directory entry
// itself is not fsync'd, so an operating-system crash (as opposed to a
// process crash) may lose the very latest rename.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a session store directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: store directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// fileName encodes a session name into a safe, collision-free file
// name: percent-encoding is injective and leaves no path separators,
// and the "s-" prefix keeps every snapshot distinguishable from the
// store's dot-prefixed temp files whatever the session is called.
func fileName(session string) string {
	return "s-" + url.PathEscape(session) + ".json"
}

// Path returns the file a session is stored at.
func (st *Store) Path(session string) string {
	return filepath.Join(st.dir, fileName(session))
}

// Save atomically writes one session's state.
func (st *Store) Save(state *sessionState) error {
	if state == nil || state.Name == "" {
		return fmt.Errorf("server: invalid session state")
	}
	data, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encoding session %q: %w", state.Name, err)
	}
	data = append(data, '\n')
	err = fsatomic.WriteFile(st.Path(state.Name), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	if err != nil {
		return fmt.Errorf("server: saving session %q: %w", state.Name, err)
	}
	return nil
}

// Load reads one session's state by name.
func (st *Store) Load(session string) (*sessionState, error) {
	return st.loadFile(st.Path(session))
}

func (st *Store) loadFile(path string) (*sessionState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: loading session snapshot: %w", err)
	}
	// UseNumber keeps relational int64 row cells exact instead of
	// routing them through float64.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var state sessionState
	if err := dec.Decode(&state); err != nil {
		return nil, fmt.Errorf("%w: decoding %s: %v", errBadSnapshot, filepath.Base(path), err)
	}
	if state.Format != storeFormat {
		return nil, fmt.Errorf("%w: %s has format %d (want %d)",
			errBadSnapshot, filepath.Base(path), state.Format, storeFormat)
	}
	if state.Name == "" {
		return nil, fmt.Errorf("%w: %s has no session name", errBadSnapshot, filepath.Base(path))
	}
	return &state, nil
}

// LoadAll reads every session snapshot in the store, sorted by file
// name. In-progress temp files are skipped; any unreadable snapshot is
// an error, so a daemon never silently starts without part of its
// state.
func (st *Store) LoadAll() ([]*sessionState, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("server: reading store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "s-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	out := make([]*sessionState, 0, len(names))
	for _, n := range names {
		state, err := st.loadFile(filepath.Join(st.dir, n))
		if err != nil {
			return nil, err
		}
		out = append(out, state)
	}
	return out, nil
}

// Export captures the session's durable state: the integrator snapshot
// once federated, otherwise the registered sources. Non-serialisable
// sources (wrappers without a Snapshot hook) make the session
// non-exportable and are reported by name.
func (s *Session) Export() (*sessionState, error) {
	s.mu.RLock()
	ig := s.ig
	ws := append([]wrapper.Wrapper(nil), s.wrappers...)
	s.mu.RUnlock()

	state := &sessionState{Format: storeFormat, Name: s.name}
	if ig != nil {
		snap, err := ig.Export()
		if err != nil {
			return nil, fmt.Errorf("server: exporting session %q: %w", s.name, err)
		}
		state.Integrator = snap
		return state, nil
	}
	snaps, err := wrapper.SnapshotAll(ws)
	if err != nil {
		return nil, fmt.Errorf("server: exporting session %q: %w", s.name, err)
	}
	state.Sources = snaps
	return state, nil
}

// sessionFromState rebuilds a session from its durable state. The
// restored session starts cold: every cache layer (results, extent
// memo, source extents) is empty and warms on demand, so restore never
// replays stale derived state — the snapshot holds definitions, not
// materialisations.
func sessionFromState(state *sessionState, cfg Config) (*Session, error) {
	sess := newSession(state.Name, cfg)
	if state.Integrator != nil {
		ig, err := core.Import(state.Integrator)
		if err != nil {
			return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
		}
		cfg.configure(ig.Processor())
		sess.ig = ig
		sess.wrappers = ig.Sources()
		return sess, nil
	}
	for _, ws := range state.Sources {
		w, err := wrapper.Restore(ws)
		if err != nil {
			return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
		}
		sess.wrappers = append(sess.wrappers, w)
	}
	return sess, nil
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
		if _, err := s.install(state); err != nil {
			return 0, err
		}
	}
	return len(states), nil
}

// install rebuilds a session from its durable state and puts it in the
// registry, replacing a same-named one. The caller holds persistMu.
func (s *Server) install(state *sessionState) (*Session, error) {
	sess, err := sessionFromState(state, s.cfg)
	if err != nil {
		return nil, err
	}
	s.reg.Put(sess)
	s.metrics.SessionRestore()
	return sess, nil
}

// save exports one session and writes it to the store, counting the
// outcome. The caller holds persistMu and has checked the store is open.
func (s *Server) save(sess *Session) error {
	state, err := sess.Export()
	if err == nil {
		err = s.store.Save(state)
	}
	if err != nil {
		s.metrics.SnapshotError()
		return err
	}
	s.metrics.SnapshotWritten()
	return nil
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
	return sess, s.save(sess)
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
	return s.install(state)
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
	if err := s.save(sess); err != nil {
		s.log.Error("autosave failed", "session", sess.Name(), "error", err)
	}
}
