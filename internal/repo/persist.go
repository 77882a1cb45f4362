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
// it: MarshalJSON writes it without whitespace, which is what a session
// checkpoint holds; Save indents it, for the standalone document people
// read. Decode reads either.

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

// MarshalJSON returns the repository's document: schemas by name,
// pathways in the order they were added, each as encoding/json encodes
// a repoDTO.
func (r *Repository) MarshalJSON() ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dto := repoDTO{Version: persistVersion}
	for _, name := range r.schemaNamesLocked() {
		dto.Schemas = append(dto.Schemas, schemaDoc(r.schemas[name]))
	}
	for _, p := range r.pathways {
		dto.Pathways = append(dto.Pathways, pathwayDoc(p))
	}
	return json.Marshal(dto)
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
			Object: t.Object.Scheme.String(),
			Auto:   t.Auto,
		}
		if t.Query != nil {
			sd.Query = t.Query.String()
		}
		if t.To != nil {
			sd.To = t.To.Scheme.String()
		}
		if t.Kind == transform.Add || t.Kind == transform.Extend {
			sd.ObjKind = t.Object.Kind.String()
			sd.Model = t.Object.Model
			sd.Construct = t.Object.Construct
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
		src, dst := r.schemas[pd.Source], r.schemas[pd.Target]
		for i, sd := range pd.Steps {
			t, err := decodeStep(sd, src, dst)
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

// decodeStep decodes one step of a pathway from schema src to schema
// dst (either may be nil). The object a delete, a contract, a rename or
// an id starts from is src's object of that scheme, and the object a
// rename makes or an id relates to is dst's — so a restored pathway,
// reversed, recreates the source's objects as they were. The object an
// add or an extend makes, and one src lacks, is as the document
// describes it: a plain nodal object when it says nothing; one dst
// lacks is the first object under the other scheme.
func decodeStep(sd stepDTO, src, dst *hdm.Schema) (transform.Transformation, error) {
	var t transform.Transformation
	kind, err := transform.ParseKind(sd.Kind)
	if err != nil {
		return t, err
	}
	t.Kind = kind
	sc, err := hdm.ParseScheme(sd.Object)
	if err != nil {
		return t, err
	}
	if kind != transform.Add && kind != transform.Extend {
		t.Object, _ = lookup(src, sc)
	}
	if t.Object == nil {
		k := hdm.Nodal
		if sd.ObjKind != "" {
			if k, err = hdm.ParseObjectKind(sd.ObjKind); err != nil {
				return t, err
			}
		}
		t.Object = hdm.NewObject(sc, k, sd.Model, sd.Construct)
	}
	if sd.Query != "" {
		t.Query, err = iql.Parse(sd.Query)
		if err != nil {
			return t, err
		}
	}
	if sd.To != "" {
		to, err := hdm.ParseScheme(sd.To)
		if err != nil {
			return t, err
		}
		var ok bool
		if t.To, ok = lookup(dst, to); !ok {
			t.To = t.Object.WithScheme(to)
		}
	}
	t.Auto = sd.Auto
	return t, t.Validate()
}

// lookup is s.Object for an s that may be nil.
func lookup(s *hdm.Schema, sc hdm.Scheme) (*hdm.Object, bool) {
	if s == nil {
		return nil, false
	}
	return s.Object(sc)
}
