package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

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
	// Sources holds the snapshot documents (wrapper.Encode) of
	// registered-but-not-yet-federated sources; once the session
	// federates they move inside Integrator.
	Sources []json.RawMessage `json:"sources,omitempty"`
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
// Layout: a file is one format-1 JSON document. Save streams it in one
// pass — the small members through encoding/json, each source's
// snapshot document and the repository verbatim (a source document is
// one table row per line) — so whitespace is wherever that leaves it
// and is not part of the format; Load reads any layout, including the
// indented files earlier releases wrote.
//
// Durability contract: each save writes a temporary file in the same
// directory, fsyncs it, and renames it over the destination. A crash
// mid-write therefore never truncates or corrupts an existing snapshot
// — the worst case is serving the previous one, and a temporary file
// left behind, which the next NewStore on the directory removes. The
// directory entry itself is not fsync'd, so an operating-system crash
// (as opposed to a process crash) may lose the very latest rename.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a session store directory and
// removes the temporary files a crash between create and rename left in
// it: exactly the dot-prefixed names fsatomic gives the temporaries of
// snapshot files, never a snapshot. One process owns a store directory
// at a time.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: store directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: opening store: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, ".s-*.json.tmp-*"))
	if err != nil {
		return nil, fmt.Errorf("server: opening store: %w", err)
	}
	for _, tmp := range stale {
		if err := os.Remove(tmp); err != nil {
			return nil, fmt.Errorf("server: opening store: %w", err)
		}
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

// Save atomically writes one session's state and returns the size of
// the file.
func (st *Store) Save(state *sessionState) (int64, error) {
	if state == nil || state.Name == "" {
		return 0, fmt.Errorf("server: invalid session state")
	}
	var size int64
	err := fsatomic.WriteFile(st.Path(state.Name), func(w io.Writer) error {
		cw := &countingWriter{w: w}
		bw := bufio.NewWriter(cw) // the large members are written past it
		if err := state.writeJSON(bw); err != nil {
			return err
		}
		err := bw.Flush()
		size = cw.n
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("server: saving session %q: %w", state.Name, err)
	}
	return size, nil
}

// writeJSON writes the state as one JSON object, the tokens
// json.Marshal(state) writes: format and name through encoding/json,
// then the one large member that is present (the last member either
// way) with its documents verbatim.
func (state *sessionState) writeJSON(bw *bufio.Writer) error {
	head, err := json.Marshal(sessionState{Format: state.Format, Name: state.Name})
	if err != nil {
		return err
	}
	bw.Write(head[:len(head)-1])
	if len(state.Sources) > 0 {
		bw.WriteString(`,"sources":[`)
		for i, doc := range state.Sources {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteByte('\n')
			bw.Write(doc)
		}
		bw.WriteString("\n]")
	}
	if state.Integrator != nil {
		bw.WriteString(`,"integrator":`)
		if err := state.Integrator.WriteJSON(bw); err != nil {
			return err
		}
	}
	_, err = bw.WriteString("}\n")
	return err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
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
	return decodeState(data, filepath.Base(path))
}

// decodeState decodes a session file: exactly one JSON document, then
// nothing but white space. The source documents and the repository are
// only skipped over here; wrapper.Decode and repo.Decode decode them.
func decodeState(data []byte, file string) (*sessionState, error) {
	var state sessionState
	if err := json.Unmarshal(data, &state); err != nil {
		return nil, fmt.Errorf("%w: decoding %s: %v", errBadSnapshot, file, err)
	}
	if state.Format != storeFormat {
		return nil, fmt.Errorf("%w: %s has format %d (want %d)",
			errBadSnapshot, file, state.Format, storeFormat)
	}
	if state.Name == "" {
		return nil, fmt.Errorf("%w: %s has no session name", errBadSnapshot, file)
	}
	return &state, nil
}

// files lists the store's snapshot files, sorted by name. Temporary
// files (dot-prefixed) are not snapshots.
func (st *Store) files() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("server: reading store: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "s-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		paths = append(paths, filepath.Join(st.dir, e.Name()))
	}
	sort.Strings(paths)
	return paths, nil
}

// Export captures the session's durable state: the integrator snapshot
// once federated, otherwise the registered sources. Non-serialisable
// sources (wrappers without a Snapshot hook) make the session
// non-exportable and are reported by name.
func (s *Session) Export() (*sessionState, error) {
	ig, ws := s.sources()
	state := &sessionState{Format: storeFormat, Name: s.name}
	if ig != nil {
		snap, err := ig.Export()
		if err != nil {
			return nil, fmt.Errorf("server: exporting session %q: %w", s.name, err)
		}
		state.Integrator = snap
		return state, nil
	}
	docs, err := wrapper.EncodeAll(ws)
	if err != nil {
		return nil, fmt.Errorf("server: exporting session %q: %w", s.name, err)
	}
	state.Sources = docs
	return state, nil
}

// sources returns the session's integrator (nil before Federate) and a
// copy of its sources.
func (s *Session) sources() (*core.Integrator, []wrapper.Wrapper) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ig, append([]wrapper.Wrapper(nil), s.wrappers...)
}

// sessionFromState rebuilds a session from its durable state. held are
// the sources of the session it replaces, if any: one whose document
// the state holds byte for byte is the restored session's source as it
// is (wrapper.Decode), every other is decoded. The restored session
// starts cold all the same — a wrapper holds its data, not a cache: every
// cache layer (results, extent memo, source extents, join indexes) is
// the new session's own, empty, and warms on demand, so restore never
// replays stale derived state — the snapshot holds definitions, not
// materialisations.
func sessionFromState(state *sessionState, cfg Config, held ...wrapper.Wrapper) (*Session, error) {
	sess := newSession(state.Name, cfg)
	if state.Integrator != nil {
		ig, err := core.Import(state.Integrator, held...)
		if err != nil {
			return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
		}
		cfg.configure(ig.Processor())
		sess.ig = ig
		sess.wrappers = ig.Sources()
		return sess, nil
	}
	for _, doc := range state.Sources {
		w, err := wrapper.Decode(doc, held...)
		if err != nil {
			return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
		}
		sess.wrappers = append(sess.wrappers, w)
	}
	return sess, nil
}

// OpenStore enables durable sessions: snapshots are written to dir
// (created if needed), every mutating endpoint autosaves its session,
// and the explicit snapshot/restore endpoints become available. A save
// or restore already running finishes against the store it started
// with.
func (s *Server) OpenStore(dir string) error {
	st, err := NewStore(dir)
	if err != nil {
		return err
	}
	s.store.Store(st)
	return nil
}

// Store returns the open session store, or nil when persistence is
// disabled.
func (s *Server) Store() *Store { return s.store.Load() }

// persistStripes is the size of the lock table persistence is
// serialised by. It bounds the table, not the sessions: two names that
// share a stripe wait for each other as every session did for every
// other under one mutex, and nothing else changes.
const persistStripes = 64

// stripe returns the lock a session name (as the registry spells it) is
// persisted under.
func (s *Server) stripe(name string) *sync.Mutex {
	return &s.persistMu[maphash.String(s.persistSeed, name)%persistStripes]
}

// lockSession takes the persistence lock of one session name and
// returns the name as the registry spells it and the unlock. Whatever
// reads or writes that session's file, or swaps the session the name
// stands for, does so between the two.
func (s *Server) lockSession(name string) (string, func()) {
	name = canonicalName(name)
	mu := s.stripe(name)
	mu.Lock()
	return name, mu.Unlock
}

// RestoreSessions loads every session snapshot in the store into the
// registry (replacing same-named sessions) and returns how many were
// restored. Call it once at startup, after OpenStore. It holds every
// session's persistence lock from the first read to the last install,
// so it is all or nothing against concurrent saves and restores too.
func (s *Server) RestoreSessions() (int, error) {
	for i := range s.persistMu {
		// In index order, and nothing else ever holds two stripes.
		s.persistMu[i].Lock()
		defer s.persistMu[i].Unlock()
	}
	st := s.Store()
	if st == nil {
		return 0, errStoreClosed
	}
	paths, err := st.files()
	if err != nil {
		return 0, err
	}
	// Any unusable snapshot is an error before anything is installed, so
	// a daemon never silently starts without part of its state.
	restored := make([]*Session, 0, len(paths))
	for _, path := range paths {
		sess, err := s.loadSession(st, path, "")
		if err != nil {
			return 0, err
		}
		restored = append(restored, sess)
	}
	for _, sess := range restored {
		s.reg.Put(sess)
	}
	return len(restored), nil
}

// loadSession loads one snapshot file and rebuilds its session, for the
// caller to put in the registry; the time that took is what the restore
// histogram records. A non-empty name is the session the file must be
// for. The caller holds the session's persistence lock, so the session
// the file's name stands for now is the one the rebuilt session
// replaces, and its unchanged sources are taken over rather than
// decoded again.
func (s *Server) loadSession(st *Store, path, name string) (*Session, error) {
	start := time.Now()
	state, err := st.loadFile(path)
	if err != nil {
		return nil, err
	}
	if name != "" && state.Name != name {
		return nil, fmt.Errorf("%w: %s is for session %q, not %q", errBadSnapshot, filepath.Base(path), state.Name, name)
	}
	var held []wrapper.Wrapper
	if cur, err := s.reg.Get(state.Name, false); err == nil {
		_, held = cur.sources()
	}
	sess, err := sessionFromState(state, s.cfg, held...)
	if err != nil {
		return nil, err
	}
	s.metrics.SessionRestore(time.Since(start))
	return sess, nil
}

// save exports one session and writes it to st, counting the outcome.
// The caller holds the session's persistence lock.
func (s *Server) save(st *Store, sess *Session) error {
	start := time.Now()
	state, err := sess.Export()
	var size int64
	if err == nil {
		size, err = st.Save(state)
	}
	if err != nil {
		s.metrics.SnapshotError()
		return err
	}
	s.metrics.SnapshotWritten(size, time.Since(start))
	return nil
}

// SnapshotSession forces a durable snapshot of one named session,
// counting the outcome in metrics and returning the session it
// exported. It is the programmatic form of POST
// /sessions/{name}/snapshot.
func (s *Server) SnapshotSession(name string) (*Session, error) {
	name, unlock := s.lockSession(name)
	defer unlock()
	st := s.Store()
	if st == nil {
		return nil, errStoreClosed
	}
	sess, err := s.reg.Get(name, false)
	if err != nil {
		return nil, err
	}
	return sess, s.save(st, sess)
}

// restoreSession loads one session from the store and installs it in
// the registry, all under the session's persistence lock so no autosave
// of the session it replaces interleaves between the read and the swap.
func (s *Server) restoreSession(name string) (*Session, error) {
	name, unlock := s.lockSession(name)
	defer unlock()
	st := s.Store()
	if st == nil {
		return nil, errStoreClosed
	}
	sess, err := s.loadSession(st, st.Path(name), name)
	if err != nil {
		return nil, err
	}
	s.reg.Put(sess)
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
	_, unlock := s.lockSession(sess.Name())
	defer unlock()
	st := s.Store()
	if st == nil {
		return
	}
	// Skip orphaned sessions: if a restore replaced this session after
	// its mutation, the name now belongs to the restored state and this
	// session's snapshot must not overwrite it.
	if cur, err := s.reg.Get(sess.Name(), false); err != nil || cur != sess {
		return
	}
	if err := s.save(st, sess); err != nil {
		s.log.Error("autosave failed", "session", sess.Name(), "error", err)
	}
}
