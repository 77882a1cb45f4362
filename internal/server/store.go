package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"io/fs"
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

// sessionState is the durable form of one server session: a checkpoint
// — either a pre-federation source list or, once federated, the
// integrator's full snapshot (which carries the sources itself) — and
// the steps the session took after it. One file per session.
type sessionState struct {
	Format int    `json:"format"`
	Name   string `json:"name"`
	// Sources holds the snapshot documents (wrapper.Encode) of
	// registered-but-not-yet-federated sources; once the session
	// federates they move inside Integrator.
	Sources []json.RawMessage `json:"sources,omitempty"`
	// Integrator is the full core snapshot; nil before Federate.
	Integrator *core.Snapshot `json:"integrator,omitempty"`

	// Not part of the checkpoint document. An exported state names the
	// integrator it was exported from; a loaded one carries its
	// checkpoint as read, the step records after it, the checkpoint's
	// length, the length of the file those records end at, and how many
	// bytes of a torn final record were dropped after them.
	ig               *core.Integrator
	read             *readCheckpoint
	steps            []core.Step
	checkpoint, size int64
	torn             int
}

// readCheckpoint is a checkpoint as a session read it: its bytes, and
// the state they decode to (the checkpoint's members alone). Neither is
// changed once made, so every session restored from those bytes shares
// it — and, through its core.Snapshot, one decoded repository.
type readCheckpoint struct {
	data  []byte
	state sessionState
}

// sessionFile is what a session knows of its file, as the session last
// wrote or read it: the file may be continued with the session's later
// steps only while it is still that file, of that length, in that store,
// and the session has changed by steps alone since (Session.appendSteps).
// It is read and written under the session name's persistence lock.
type sessionFile struct {
	st *Store
	// ig is the integrator whose steps the file journals (nil before
	// federation), and steps how many of them it holds
	// (core.Integrator.StepsSince).
	ig    *core.Integrator
	steps int
	// docs are the checkpoint's source documents, in source order.
	docs             []json.RawMessage
	checkpoint, size int64
	// read is the checkpoint the file starts with, decoded, when the
	// session read the file rather than wrote it: a restore of a file
	// that starts with those bytes decodes nothing of them again.
	read *readCheckpoint
}

// storeFormat is the session-file format version.
const storeFormat = 1

// errBadSnapshot marks a snapshot file that exists but cannot be used
// (malformed JSON, wrong format version, missing or mismatched name) —
// a client/operational condition, distinct from I/O failures.
var errBadSnapshot = errors.New("server: unusable session snapshot")

// Store persists sessions as one file per session in a directory.
//
// Layout: a file is a checkpoint followed by step records. The
// checkpoint is one format-1 JSON document. Save streams it in one pass
// — the small members through encoding/json, each source's snapshot
// document and the repository verbatim (a source document is one table
// row per line) — so whitespace is wherever that leaves it and is not
// part of the format; Load reads any layout, including the indented
// files earlier releases wrote. A step record is one accepted
// intersect or refine (core.Step) as an RFC 7464 JSON text: the record
// separator 0x1E, one JSON object, a line feed. No JSON document holds
// a 0x1E, so the first one in a file ends its checkpoint, and a file
// without records is exactly the document earlier releases wrote.
//
// Durability contract: a checkpoint is written to a temporary file in
// the same directory, fsynced, and renamed over the destination. A
// crash mid-write therefore never truncates or corrupts an existing
// file — the worst case is serving the previous one, and a temporary
// file left behind, which the next NewStore on the directory removes.
// The directory entry itself is not fsync'd, so an operating-system
// crash (as opposed to a process crash) may lose the very latest
// rename. Step records are appended and fsynced before the step is
// acknowledged; a crash mid-append leaves a torn final record, which a
// load drops with a warning — it never fails a start.
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

// Save atomically writes one session's checkpoint and returns the size
// of the file.
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

// errStale says a session's file is not the one the session last wrote
// or read, so it cannot be continued: a checkpoint is due.
var errStale = errors.New("server: the session file changed")

// recordSep begins every step record (RFC 7464's record separator).
const recordSep = 0x1e

// Append appends step records to a session's file, which must be size
// bytes long (errStale otherwise, with nothing written), and fsyncs
// them.
func (st *Store) Append(session string, size int64, records []byte) error {
	f, err := os.OpenFile(st.Path(session), os.O_WRONLY|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return errStale
	}
	if err != nil {
		return fmt.Errorf("server: appending to session %q: %w", session, err)
	}
	info, err := f.Stat()
	if err == nil && info.Size() != size {
		err = errStale
	}
	if err == nil {
		_, err = f.Write(records)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, errStale) {
		return fmt.Errorf("server: appending to session %q: %w", session, err)
	}
	return err
}

// encodeSteps renders steps as step records.
func encodeSteps(steps []core.Step) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // IQL is full of <<, <- and &
	for _, step := range steps {
		buf.WriteByte(recordSep)
		if err := enc.Encode(step); err != nil { // ends it with '\n'
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// readState reads and decodes a session file (decodeState). When held
// is given and the file starts with its checkpoint, byte for byte,
// followed by nothing or a step record, the checkpoint is compared
// through a pooled buffer of fixed size and only the step records after
// it are read; any other file is read whole.
func readState(path string, held *readCheckpoint) (*sessionState, error) {
	if held != nil {
		rest, ok, err := readAfter(path, held.data)
		if err != nil {
			return nil, fmt.Errorf("server: loading session snapshot: %w", err)
		}
		if ok {
			return held.withRecords(rest, filepath.Base(path))
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: loading session snapshot: %w", err)
	}
	return decodeState(data, filepath.Base(path), held)
}

// compareBuffers are what readAfter compares a file through.
var compareBuffers = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// readAfter reports whether the file at path starts with prefix and,
// when it does, returns what follows it, provided that is nothing or
// begins with a record separator.
func readAfter(path string, prefix []byte) ([]byte, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || info.Size() < int64(len(prefix)) {
		return nil, false, err
	}
	bp := compareBuffers.Get().(*[]byte)
	defer compareBuffers.Put(bp)
	for off := 0; off < len(prefix); {
		chunk := (*bp)[:min(len(*bp), len(prefix)-off)]
		if _, err := io.ReadFull(f, chunk); err != nil {
			return nil, false, ignoreEOF(err)
		}
		if !bytes.Equal(chunk, prefix[off:off+len(chunk)]) {
			return nil, false, nil
		}
		off += len(chunk)
	}
	rest := make([]byte, info.Size()-int64(len(prefix)))
	if _, err := io.ReadFull(f, rest); err != nil {
		return nil, false, ignoreEOF(err)
	}
	return rest, len(rest) == 0 || rest[0] == recordSep, nil
}

// ignoreEOF is err, unless it says a file ended early: one that changed
// since it was measured is read again whole.
func ignoreEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// decodeState decodes a session file: its checkpoint — exactly one JSON
// document, then nothing but white space — and the step records after
// it. The source documents and the repository are only skipped over
// here; wrapper.Decode and core.Import decode them. held is a checkpoint
// read before, or nil: a checkpoint that is its bytes, byte for byte, is
// not decoded again, and the state is held's; the step records are
// decoded either way (readCheckpoint.withRecords).
func decodeState(data []byte, file string, held *readCheckpoint) (*sessionState, error) {
	checkpoint := data
	if i := bytes.IndexByte(data, recordSep); i >= 0 {
		checkpoint = data[:i]
	}
	if held == nil || !bytes.Equal(held.data, checkpoint) {
		var state sessionState
		if err := json.Unmarshal(checkpoint, &state); err != nil {
			return nil, fmt.Errorf("%w: decoding %s: %v", errBadSnapshot, file, err)
		}
		held = &readCheckpoint{data: checkpoint, state: state}
	}
	return held.withRecords(data[len(checkpoint):], file)
}

// withRecords is the state of a file that is the checkpoint and then
// rest, the step records after it. A final record that is torn (no line
// feed, or not one JSON object) is dropped and counted in torn; any
// other is an error.
func (held *readCheckpoint) withRecords(rest []byte, file string) (*sessionState, error) {
	state := held.state
	state.read = held
	state.checkpoint = int64(len(held.data))
	state.size = state.checkpoint + int64(len(rest))
	for len(rest) > 0 {
		end := len(rest)
		if i := bytes.IndexByte(rest[1:], recordSep); i >= 0 {
			end = 1 + i
		}
		var step core.Step
		if rec := rest[1:end]; !bytes.HasSuffix(rec, []byte("\n")) || json.Unmarshal(rec, &step) != nil {
			if end < len(rest) {
				return nil, fmt.Errorf("%w: %s: step record %d is not one JSON object and a line feed", errBadSnapshot, file, len(state.steps)+1)
			}
			state.torn = len(rest)
			state.size -= int64(len(rest))
			break
		}
		state.steps = append(state.steps, step)
		rest = rest[end:]
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
	state := &sessionState{Format: storeFormat, Name: s.name, ig: ig}
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

// sessionFromState rebuilds a session from its durable state: the
// checkpoint, then every step recorded after it, taken again in order
// (core.Integrator.Apply). held are the sources of the session it
// replaces, if any: one whose document the checkpoint holds byte for
// byte is the restored session's source as it is (wrapper.Decode), every
// other is decoded. The session answers from c: what it took over was
// cached under its instances' addresses, and is found warm; what it
// decoded is a new instance, read afresh — a wrapper holds its data,
// not a cache — so restore never replays stale derived state: the file
// holds definitions and steps, not materialisations.
func sessionFromState(state *sessionState, cfg Config, c *caches, held ...wrapper.Wrapper) (*Session, error) {
	sess := newSession(state.Name, cfg, c)
	if state.Integrator != nil {
		ig, err := core.Import(state.Integrator, held...)
		if err != nil {
			return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
		}
		cfg.configure(ig.Processor(), c.extents)
		sess.ig = ig
		sess.wrappers = ig.Sources()
	} else {
		for _, doc := range state.Sources {
			w, err := wrapper.Decode(doc, held...)
			if err != nil {
				return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
			}
			sess.wrappers = append(sess.wrappers, w)
		}
	}
	for i, step := range state.steps {
		err := fmt.Errorf("server: session %q is not federated", state.Name)
		if sess.ig != nil {
			err = sess.ig.Apply(step)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: restoring session %q: step record %d (%s %q): %v", errBadSnapshot, state.Name, i+1, step.Kind, step.Name, err)
		}
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
// replaces: its unchanged sources are taken over rather than decoded
// again, and when name is given and the file starts with the checkpoint
// that session read, byte for byte, the checkpoint is not decoded again
// either (decodeState, core.Import).
func (s *Server) loadSession(st *Store, path, name string) (*Session, error) {
	start := time.Now()
	var read *readCheckpoint
	if name != "" {
		if cur, err := s.reg.Get(name, false); err == nil && cur.file != nil {
			read = cur.file.read
		}
	}
	state, err := readState(path, read)
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
	sess, err := sessionFromState(state, s.cfg, s.reg.caches, held...)
	if err != nil {
		return nil, err
	}
	if state.torn > 0 {
		s.log.Warn("dropped a torn step record at the end of a session file",
			"session", state.Name, "file", filepath.Base(path), "bytes", state.torn)
	}
	sess.file = &sessionFile{st: st, ig: sess.ig, steps: len(state.steps), docs: state.docs(),
		checkpoint: state.checkpoint, size: state.size, read: state.read}
	s.metrics.SessionRestore(time.Since(start))
	return sess, nil
}

// docs are the checkpoint's source documents.
func (state *sessionState) docs() []json.RawMessage {
	if state.Integrator != nil {
		return state.Integrator.Sources
	}
	return state.Sources
}

// save writes one session to st, counting the outcome: the steps the
// session took since its file was last written or read, appended to it,
// or — when the file cannot be continued that way, or checkpoint is set
// — a new checkpoint. A save with nothing new writes nothing. The caller
// holds the session's persistence lock.
func (s *Server) save(st *Store, sess *Session, checkpoint bool) error {
	start := time.Now()
	var size int64
	appended := false
	var err error
	if !checkpoint {
		size, appended, err = sess.appendSteps(st)
	}
	if err == nil && !appended {
		size, err = sess.writeCheckpoint(st)
	}
	if err != nil {
		s.metrics.SnapshotError()
		return err
	}
	if size > 0 {
		s.metrics.SnapshotWritten(size, time.Since(start), !appended)
	}
	return nil
}

// appendSteps appends to the session's file the steps it took since the
// file was last written or read, and reports whether that was the whole
// save. It is not — nothing is written, and a checkpoint is due — when
// the session holds no such file (it was never saved or restored here,
// the store was reopened, the file was changed behind it), when it has
// changed by something other than steps since (federation, a backfill,
// an in-memory source whose data changed), or when the records would
// make the journal longer than its checkpoint.
func (sess *Session) appendSteps(st *Store) (int64, bool, error) {
	f := sess.file
	ig, ws := sess.sources()
	if f == nil || f.st != st || ig == nil || f.ig != ig || len(ws) != len(f.docs) {
		return 0, false, nil
	}
	steps, ok := ig.StepsSince(f.steps)
	if !ok {
		return 0, false, nil
	}
	if len(steps) == 0 {
		return 0, true, nil
	}
	for i, w := range ws {
		if wrapper.Changed(w, f.docs[i]) {
			return 0, false, nil
		}
	}
	records, err := encodeSteps(steps)
	if err != nil {
		return 0, false, fmt.Errorf("server: saving session %q: %w", sess.name, err)
	}
	n := int64(len(records))
	if f.size-f.checkpoint+n > f.checkpoint {
		return 0, false, nil
	}
	if err := st.Append(sess.name, f.size, records); err != nil {
		if errors.Is(err, errStale) {
			return 0, false, nil
		}
		sess.file = nil // the file may end in a torn record now
		return 0, false, err
	}
	f.steps += len(steps)
	f.size += n
	return n, true, nil
}

// writeCheckpoint exports the session and writes it to st as a new file.
func (sess *Session) writeCheckpoint(st *Store) (int64, error) {
	sess.file = nil
	state, err := sess.Export()
	if err != nil {
		return 0, err
	}
	size, err := st.Save(state)
	if err != nil {
		return 0, err
	}
	f := &sessionFile{st: st, ig: state.ig, docs: state.docs(), checkpoint: size, size: size}
	if state.Integrator != nil {
		f.steps = state.Integrator.Steps
	}
	sess.file = f
	return size, nil
}

// SnapshotSession forces a checkpoint of one named session, counting
// the outcome in metrics and returning the session it exported. It is
// the programmatic form of POST /sessions/{name}/snapshot.
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
	return sess, s.save(st, sess, true)
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

// persist autosaves one session if a store is open: the steps it took
// since its last save, appended to its file, or a checkpoint when that
// file cannot be continued (save). The in-memory mutation has already
// succeeded by the time persist runs, so failures are not surfaced to
// the client; they are logged and counted in metrics (snapshot_errors),
// and the file stays as it was — a checkpoint is renamed into place
// whole, and a torn append is dropped when the file is next read.
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
	if err := s.save(st, sess, false); err != nil {
		s.log.Error("autosave failed", "session", sess.Name(), "error", err)
	}
}
