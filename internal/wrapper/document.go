package wrapper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"github.com/dataspace/automed/internal/jsontext"
	"github.com/dataspace/automed/internal/rel"
)

// A source's snapshot document is its Snapshot encoded as JSON: what a
// session file holds per source, produced by Encode and read back by
// Decode. Session snapshots carry documents, not Snapshot values, so a
// source that has not changed since it was last encoded (or since it
// was restored) costs a save nothing but the write.

// Encode returns w's snapshot document. The in-memory kinds
// (relational, static, XML) memoise it on the wrapper, validated by a
// count of the wrapper's mutations, so it is shared between calls and
// must not be modified; live kinds (SQL, REST, Fault) materialise and
// encode on every call. A source that is not a Snapshotter is an error
// naming it.
func Encode(w Wrapper) (json.RawMessage, error) {
	sn, ok := w.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("wrapper: source %q (%T) does not support snapshotting", w.SchemaName(), w)
	}
	var doc json.RawMessage
	var err error
	if m, ok := w.(memoised); ok {
		memo, stamp := m.docMemo()
		doc, err = memo.get(stamp, sn)
	} else {
		doc, err = encode(sn)
	}
	if err != nil {
		return nil, fmt.Errorf("wrapper: snapshotting source %q: %w", w.SchemaName(), err)
	}
	return doc, nil
}

// EncodeAll encodes a slice of wrappers, failing on the first source
// that cannot be.
func EncodeAll(ws []Wrapper) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(ws))
	for _, w := range ws {
		doc, err := Encode(w)
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	}
	return out, nil
}

// Decode rebuilds a wrapper from its snapshot document (exactly one
// JSON value; integers keep their full int64 precision). encoding/json
// decides whether doc is JSON and decodes everything in it; the rows of
// relational tables are text in a Snapshot, which Restore walks by
// column type (rows.go) without validating them again. An in-memory
// wrapper keeps the document as its memo, so saving a restored session
// encodes no source until one changes. Decode takes ownership of doc.
//
// held are wrappers the caller already has. An in-memory one whose
// memoised document, at its current mutation stamp, is doc byte for
// byte is returned as it is, decoding nothing: Decode(Encode(w)) is
// equivalent to w, and a wrapper changed since it was encoded has moved
// its stamp. A live kind (SQL, REST, fault) is never taken from held.
func Decode(doc json.RawMessage, held ...Wrapper) (Wrapper, error) {
	for _, w := range held {
		if m, ok := w.(memoised); ok {
			if memo, stamp := m.docMemo(); memo.holds(stamp, doc) {
				return w, nil
			}
		}
	}
	var snap Snapshot
	if err := json.Unmarshal(doc, &snap); err != nil {
		return nil, fmt.Errorf("wrapper: decoding snapshot document: %w", err)
	}
	w, err := restore(&snap, true)
	if err != nil {
		return nil, err
	}
	// An indented document (a session file from before the
	// one-row-per-line layout) is not kept: the next save re-encodes
	// it, so old files shrink on their first autosave.
	if m, ok := w.(memoised); ok && !bytes.HasPrefix(doc, []byte("{\n ")) {
		memo, stamp := m.docMemo()
		memo.set(stamp, doc)
	}
	return w, nil
}

// Changed reports whether w is an in-memory source that no longer holds
// doc: one changed since doc was its document (encoded or restored). A
// live kind (SQL, REST, fault) is never reported changed — its document
// is whatever its backend serves when it is next encoded.
func Changed(w Wrapper, doc json.RawMessage) bool {
	m, ok := w.(memoised)
	if !ok {
		return false
	}
	memo, stamp := m.docMemo()
	return !memo.holds(stamp, doc)
}

func encode(sn Snapshotter) (json.RawMessage, error) {
	snap, err := sn.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.MarshalJSON()
}

// memoised is implemented by the wrapper kinds whose state changes only
// through this process: docMemo returns the wrapper's memo and its
// current mutation stamp.
type memoised interface {
	docMemo() (*docMemo, uint64)
}

// docMemo holds a wrapper's encoded document and the mutation stamp it
// was encoded (or restored) at. A different stamp means the wrapper has
// changed and the document is stale.
type docMemo struct {
	mu    sync.Mutex
	doc   json.RawMessage
	stamp uint64
}

func (m *docMemo) get(stamp uint64, sn Snapshotter) (json.RawMessage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.doc == nil || m.stamp != stamp {
		doc, err := encode(sn)
		if err != nil {
			return nil, err
		}
		m.doc, m.stamp = doc, stamp
	}
	return m.doc, nil
}

// holds reports whether the memo is doc, encoded at stamp.
func (m *docMemo) holds(stamp uint64, doc json.RawMessage) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.doc != nil && m.stamp == stamp && bytes.Equal(m.doc, doc)
}

func (m *docMemo) set(stamp uint64, doc json.RawMessage) {
	m.mu.Lock()
	m.doc, m.stamp = doc, stamp
	m.mu.Unlock()
}

func (w *Relational) docMemo() (*docMemo, uint64) { return &w.memo, w.db.Mutations() }

// A Static changes only by Add, which never replaces an extent.
func (w *Static) docMemo() (*docMemo, uint64) { return &w.memo, uint64(len(w.extents)) }

// An XML wrapper never changes after NewXML.
func (w *XML) docMemo() (*docMemo, uint64) { return &w.memo, 0 }

// MarshalJSON writes the document: the members encoding/json would
// write, in its order and with its tokens, but relational rows, already
// text, are spliced in as they are.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	size := 1024
	for i := range s.Tables {
		size += len(s.Tables[i].Rows)
	}
	dst := append(make([]byte, 0, size), `{"kind":`...)
	dst = jsontext.AppendStringHTML(dst, s.Kind)
	dst = append(dst, `,"name":`...)
	dst = jsontext.AppendStringHTML(dst, s.Name)
	if len(s.Tables) > 0 {
		dst = append(dst, `,"tables":[`...)
		for i := range s.Tables {
			if i > 0 {
				dst = append(dst, ',')
			}
			// The description through encoding/json, its rows left nil:
			// rows is the last member, so the rows go where its null was.
			head := s.Tables[i]
			head.Rows = nil
			b, err := json.Marshal(&head)
			if err != nil {
				return nil, err
			}
			dst = append(dst, '\n')
			if rows := s.Tables[i].Rows; rows != nil {
				dst = append(append(dst, bytes.TrimSuffix(b, []byte("null}"))...), rows...)
				dst = append(dst, '}')
			} else {
				dst = append(dst, b...)
			}
		}
		dst = append(dst, "\n]"...)
	}
	rest, err := json.Marshal(struct {
		Objects []ObjectSnapshot `json:"objects,omitempty"`
		SQL     *SQLSnapshot     `json:"sql,omitempty"`
		REST    *RESTSnapshot    `json:"rest,omitempty"`
		Fault   *FaultSnapshot   `json:"fault,omitempty"`
	}{s.Objects, s.SQL, s.REST, s.Fault})
	if err != nil {
		return nil, err
	}
	if len(rest) > len("{}") {
		dst = append(append(dst, ','), rest[1:len(rest)-1]...)
	}
	return append(dst, '}'), nil
}

// appendRows appends t's rows as Relational.Snapshot writes them: one
// row per line, no reflection, and a cell JSON cannot carry is an error
// naming where it is. An empty table is [].
func appendRows(dst []byte, source string, t *rel.Table) ([]byte, error) {
	rows := t.Rows()
	if len(rows) == 0 {
		return append(dst, "[]"...), nil
	}
	dst = append(dst, '[')
	for rn, row := range rows {
		if rn > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '\n', '[')
		for cn, cell := range row {
			if cn > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendCell(dst, cell); err != nil {
				return dst, fmt.Errorf("wrapper: source %q table %q row %d column %q: %w", source, t.Name(), rn, t.Columns()[cn].Name, err)
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "\n]"...), nil
}

// appendCell appends one row cell, of one of the types rel holds.
func appendCell(dst []byte, cell any) ([]byte, error) {
	switch x := cell.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return jsontext.AppendStringHTML(dst, x), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case float64:
		return jsontext.AppendFloat(dst, x)
	case bool:
		return strconv.AppendBool(dst, x), nil
	}
	return dst, fmt.Errorf("a cell of type %T", cell)
}
