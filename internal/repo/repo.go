// Package repo implements the Schemas & Transformations Repository
// (STR): the store of all source, intermediate and integrated schemas
// and the pathways between them (paper §2.1).
package repo

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/transform"
)

// Repository stores schemas and pathways. It is safe for concurrent
// use.
type Repository struct {
	mu       sync.RWMutex
	schemas  map[string]*hdm.Schema
	pathways []*transform.Pathway
}

// New returns an empty repository.
func New() *Repository {
	return &Repository{schemas: make(map[string]*hdm.Schema)}
}

// AddSchema stores a schema; duplicate names are an error.
func (r *Repository) AddSchema(s *hdm.Schema) error {
	if s == nil {
		return fmt.Errorf("repo: nil schema")
	}
	if s.Name() == "" {
		return fmt.Errorf("repo: schema has no name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.schemas[s.Name()]; dup {
		return fmt.Errorf("repo: schema %q already stored", s.Name())
	}
	r.schemas[s.Name()] = s
	return nil
}

// Schema returns the named schema.
func (r *Repository) Schema(name string) (*hdm.Schema, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.schemas[name]
	return s, ok
}

// SchemaNames returns stored schema names, sorted.
func (r *Repository) SchemaNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.schemas))
	for n := range r.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddPathway stores a pathway. Both endpoint schemas must exist; when
// check is true, applying the pathway to the source must reproduce the
// stored target schema exactly.
func (r *Repository) AddPathway(p *transform.Pathway, check bool) error {
	if p == nil {
		return fmt.Errorf("repo: nil pathway")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.schemas[p.Source]
	if !ok {
		return fmt.Errorf("repo: pathway source %q not stored", p.Source)
	}
	tgt, ok := r.schemas[p.Target]
	if !ok {
		return fmt.Errorf("repo: pathway target %q not stored", p.Target)
	}
	if check {
		derived, err := transform.ApplyPathway(src, p, false)
		if err != nil {
			return fmt.Errorf("repo: pathway %s->%s does not apply: %w", p.Source, p.Target, err)
		}
		if !hdm.Identical(derived, tgt) {
			da, db := hdm.Diff(derived, tgt)
			return fmt.Errorf("repo: pathway %s->%s yields wrong schema (derived-only: %v, stored-only: %v)",
				p.Source, p.Target, da, db)
		}
	}
	r.pathways = append(r.pathways, p)
	return nil
}

// Pathways returns all stored pathways.
func (r *Repository) Pathways() []*transform.Pathway {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*transform.Pathway(nil), r.pathways...)
}

// PathwaysFrom returns pathways whose source is the named schema.
func (r *Repository) PathwaysFrom(name string) []*transform.Pathway {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*transform.Pathway
	for _, p := range r.pathways {
		if p.Source == name {
			out = append(out, p)
		}
	}
	return out
}

// Clone returns a repository holding r's schemas and pathways, which
// can be added to without changing r. The schemas and pathways
// themselves are shared, not copied: the two stay apart only while no
// stored schema or pathway is changed in place.
func (r *Repository) Clone() *Repository {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &Repository{schemas: maps.Clone(r.schemas), pathways: slices.Clone(r.pathways)}
}

// Stats summarises the repository contents.
func (r *Repository) Stats() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	steps := 0
	for _, p := range r.pathways {
		steps += p.Len()
	}
	return fmt.Sprintf("%d schemas, %d pathways, %d transformation steps",
		len(r.schemas), len(r.pathways), steps)
}
