package repo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
)

// JSON persistence for the repository. Schemes serialise to their
// textual form and queries to IQL source, so saved repositories are
// human-readable and diffable. There is one document and two layouts of
// it: Document holds it without whitespace, which is what a session
// snapshot writes (fragment by fragment — nothing is encoded twice or
// joined to be saved); Save indents it, for the standalone document
// people read. Decode reads either.

type objectDTO struct {
	Scheme    string `json:"scheme"`
	Kind      string `json:"kind"`
	Model     string `json:"model,omitempty"`
	Construct string `json:"construct,omitempty"`
}

type schemaDTO struct {
	Name    string      `json:"name"`
	Objects []objectDTO `json:"objects"`
}

type stepDTO struct {
	Kind      string `json:"kind"`
	Object    string `json:"object"`
	Query     string `json:"query,omitempty"`
	To        string `json:"to,omitempty"`
	ObjKind   string `json:"objKind,omitempty"`
	Model     string `json:"model,omitempty"`
	Construct string `json:"construct,omitempty"`
	Auto      bool   `json:"auto,omitempty"`
}

type pathwayDTO struct {
	Source string    `json:"source"`
	Target string    `json:"target"`
	Steps  []stepDTO `json:"steps"`
}

type repoDTO struct {
	Version  int          `json:"version"`
	Schemas  []schemaDTO  `json:"schemas"`
	Pathways []pathwayDTO `json:"pathways"`
}

const persistVersion = 1

// Save writes the repository as indented JSON: the document MarshalJSON
// returns, indented as encoding/json indents what it has encoded.
func (r *Repository) Save(w io.Writer) error {
	doc, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, doc, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = buf.WriteTo(w)
	return err
}

// fragment is one stored schema or pathway as it stands in the
// document, with the stamp it was encoded at: a schema's mutation
// count, a pathway's number of steps (a pathway changes only by Append,
// and however else a step is added to the exported slice it moves that
// too). Another stamp means the fragment is stale.
type fragment struct {
	doc   []byte
	stamp uint64
}

// Document is the repository's unindented JSON document as a save holds
// it: a live repository's memoised schema and pathway fragments, which
// it shares with the memo and never modifies (Repository.Document), or
// the bytes a snapshot decoded it from (UnmarshalJSON). Either way
// WriteTo writes it and MarshalJSON joins it, to the same tokens; the
// zero Document is JSON null.
type Document struct {
	raw               []byte   // a decoded document, as it was read
	schemas, pathways [][]byte // a live repository's fragments
	live              bool
}

// Document returns the repository's document: schemas by name, pathways
// in the order they were added, byte for byte what encoding/json makes
// of a repoDTO. A schema or pathway is encoded when it is first saved
// and again only after it has changed, so the document costs what was
// added since the last one, and no copy of what was not.
func (r *Repository) Document() (Document, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	d := Document{schemas: make([][]byte, len(r.schemas)), pathways: make([][]byte, len(r.pathways)), live: true}
	var err error
	for i, name := range r.schemaNamesLocked() {
		s := r.schemas[name]
		if d.schemas[i], err = memoised(r.schemaDocs, s, s.Mutations(), schemaDoc); err != nil {
			return Document{}, err
		}
	}
	for i, p := range r.pathways {
		if d.pathways[i], err = memoised(r.pathwayDocs, p, uint64(len(p.Steps)), pathwayDoc); err != nil {
			return Document{}, err
		}
	}
	return d, nil
}

// MarshalJSON is the repository's Document joined.
func (r *Repository) MarshalJSON() ([]byte, error) {
	d, err := r.Document()
	if err != nil {
		return nil, err
	}
	return d.MarshalJSON()
}

// The fixed pieces of a document, shared by every one that is written.
var (
	docHead     = []byte(`{"version":1,"schemas":`)
	docPathways = []byte(`,"pathways":`)
	docEnd      = []byte("}")
	jsonNull    = []byte("null")
	arrayOpen   = []byte("[")
	arrayComma  = []byte(",")
	arrayClose  = []byte("]")
)

// pieces hands the document to put in order, piece by piece: an array
// of no fragments is null, which is what encoding/json writes for a
// slice nothing was appended to.
func (d *Document) pieces(put func([]byte)) {
	if !d.live {
		if d.raw == nil {
			put(jsonNull)
		} else {
			put(d.raw)
		}
		return
	}
	array := func(elems [][]byte) {
		if len(elems) == 0 {
			put(jsonNull)
			return
		}
		for i, e := range elems {
			if i == 0 {
				put(arrayOpen)
			} else {
				put(arrayComma)
			}
			put(e)
		}
		put(arrayClose)
	}
	put(docHead)
	array(d.schemas)
	put(docPathways)
	array(d.pathways)
	put(docEnd)
}

// WriteTo writes the document to w piece by piece.
func (d Document) WriteTo(w io.Writer) (int64, error) {
	var n int64
	var err error
	d.pieces(func(b []byte) {
		if err == nil {
			var k int
			k, err = w.Write(b)
			n += int64(k)
		}
	})
	return n, err
}

// MarshalJSON returns the document joined: a decoded one's bytes as
// they are, a live one's fragments in one new slice.
func (d Document) MarshalJSON() ([]byte, error) {
	if !d.live && d.raw != nil {
		return d.raw, nil
	}
	size := 0
	d.pieces(func(b []byte) { size += len(b) })
	doc := make([]byte, 0, size)
	d.pieces(func(b []byte) { doc = append(doc, b...) })
	return doc, nil
}

// UnmarshalJSON keeps a copy of the document's bytes; Decode decodes
// them.
func (d *Document) UnmarshalJSON(b []byte) error {
	*d = Document{raw: bytes.Clone(b)}
	return nil
}

// memoised returns k's fragment from memo, encoding k afresh (as
// encoding/json encodes dto(k)) when there is none at this stamp.
func memoised[K comparable, D any](memo map[K]fragment, k K, stamp uint64, dto func(K) D) ([]byte, error) {
	f, ok := memo[k]
	if !ok || f.stamp != stamp {
		doc, err := json.Marshal(dto(k))
		if err != nil {
			return nil, err
		}
		f = fragment{doc: doc, stamp: stamp}
		memo[k] = f
	}
	return f.doc, nil
}

func schemaDoc(s *hdm.Schema) schemaDTO {
	sd := schemaDTO{Name: s.Name()}
	for _, o := range s.Objects() {
		sd.Objects = append(sd.Objects, objectDTO{
			Scheme:    o.Scheme.String(),
			Kind:      o.Kind.String(),
			Model:     o.Model,
			Construct: o.Construct,
		})
	}
	return sd
}

func pathwayDoc(p *transform.Pathway) pathwayDTO {
	pd := pathwayDTO{Source: p.Source, Target: p.Target}
	for _, t := range p.Steps {
		sd := stepDTO{
			Kind:   t.Kind.String(),
			Object: t.Object.String(),
			Auto:   t.Auto,
		}
		if t.Query != nil {
			sd.Query = t.Query.String()
		}
		if !t.To.IsZero() {
			sd.To = t.To.String()
		}
		if t.Kind == transform.Add || t.Kind == transform.Extend {
			sd.ObjKind = t.ObjKind.String()
			sd.Model = t.Model
			sd.Construct = t.Construct
		}
		pd.Steps = append(pd.Steps, sd)
	}
	return pd
}

func (r *Repository) schemaNamesLocked() []string {
	out := make([]string, 0, len(r.schemas))
	for n := range r.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Load reads a repository previously written by Save or MarshalJSON:
// the whole of rd is its document (Decode).
func Load(rd io.Reader) (*Repository, error) {
	doc, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("repo: reading: %w", err)
	}
	return Decode(doc)
}

// Decode rebuilds a repository from its document, in either layout:
// exactly one JSON value, then nothing but white space.
func Decode(doc []byte) (*Repository, error) {
	var dto repoDTO
	if err := json.Unmarshal(doc, &dto); err != nil {
		return nil, fmt.Errorf("repo: decoding: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("repo: unsupported version %d", dto.Version)
	}
	r := New()
	for _, sd := range dto.Schemas {
		s := hdm.NewSchema(sd.Name)
		for _, od := range sd.Objects {
			sc, err := hdm.ParseScheme(od.Scheme)
			if err != nil {
				return nil, fmt.Errorf("repo: schema %q: %w", sd.Name, err)
			}
			kind, err := hdm.ParseObjectKind(od.Kind)
			if err != nil {
				return nil, fmt.Errorf("repo: schema %q: %w", sd.Name, err)
			}
			if err := s.Add(hdm.NewObject(sc, kind, od.Model, od.Construct)); err != nil {
				return nil, err
			}
		}
		if err := r.AddSchema(s); err != nil {
			return nil, err
		}
	}
	for _, pd := range dto.Pathways {
		p := transform.NewPathway(pd.Source, pd.Target)
		for i, sd := range pd.Steps {
			t, err := decodeStep(sd)
			if err != nil {
				return nil, fmt.Errorf("repo: pathway %s->%s step %d: %w", pd.Source, pd.Target, i+1, err)
			}
			p.Append(t)
		}
		if err := r.AddPathway(p, false); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func decodeStep(sd stepDTO) (transform.Transformation, error) {
	var t transform.Transformation
	kind, err := transform.ParseKind(sd.Kind)
	if err != nil {
		return t, err
	}
	t.Kind = kind
	t.Object, err = hdm.ParseScheme(sd.Object)
	if err != nil {
		return t, err
	}
	if sd.Query != "" {
		t.Query, err = iql.Parse(sd.Query)
		if err != nil {
			return t, err
		}
	}
	if sd.To != "" {
		t.To, err = hdm.ParseScheme(sd.To)
		if err != nil {
			return t, err
		}
	}
	if sd.ObjKind != "" {
		t.ObjKind, err = hdm.ParseObjectKind(sd.ObjKind)
		if err != nil {
			return t, err
		}
	}
	t.Model = sd.Model
	t.Construct = sd.Construct
	t.Auto = sd.Auto
	return t, t.Validate()
}
