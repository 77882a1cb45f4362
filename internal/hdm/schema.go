package hdm

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Schema is an ordered set of schema objects, keyed by scheme. Schemas
// are not safe for concurrent mutation; the repository layer serialises
// access.
type Schema struct {
	name    string
	objects map[string]*Object
	order   []string
}

// NewSchema returns an empty schema with the given name.
func NewSchema(name string) *Schema {
	return &Schema{
		name:    name,
		objects: make(map[string]*Object),
	}
}

// NewSchemaSized returns an empty schema with room for n objects.
func NewSchemaSized(name string, n int) *Schema {
	return &Schema{
		name:    name,
		objects: make(map[string]*Object, n),
		order:   make([]string, 0, n),
	}
}

// Name returns the schema's name.
func (s *Schema) Name() string { return s.name }

// Len returns the number of objects.
func (s *Schema) Len() int { return len(s.order) }

// Add inserts an object; it is an error if an object with the same
// scheme already exists.
func (s *Schema) Add(o *Object) error {
	if o == nil {
		return fmt.Errorf("hdm: nil object added to schema %q", s.name)
	}
	if err := o.Scheme.Validate(); err != nil {
		return fmt.Errorf("hdm: schema %q: %w", s.name, err)
	}
	k := o.Scheme.Key()
	if _, dup := s.objects[k]; dup {
		return fmt.Errorf("hdm: schema %q already contains %s", s.name, o.Scheme)
	}
	s.objects[k] = o
	s.order = append(s.order, k)
	return nil
}

// MustAdd is Add that panics on error; for fixtures and tests.
func (s *Schema) MustAdd(o *Object) {
	if err := s.Add(o); err != nil {
		panic(err)
	}
}

// Remove deletes the object with the given scheme; it is an error if the
// object is absent.
func (s *Schema) Remove(sc Scheme) error {
	k := sc.Key()
	if _, ok := s.objects[k]; !ok {
		return fmt.Errorf("hdm: schema %q does not contain %s", s.name, sc)
	}
	delete(s.objects, k)
	for i, ok := range s.order {
		if ok == k {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}

// Rename changes the scheme of an existing object. The new scheme must
// not clash with another object.
func (s *Schema) Rename(from, to Scheme) error {
	fk := from.Key()
	o, ok := s.objects[fk]
	if !ok {
		return fmt.Errorf("hdm: schema %q does not contain %s", s.name, from)
	}
	if err := to.Validate(); err != nil {
		return err
	}
	tk := to.Key()
	if _, dup := s.objects[tk]; dup {
		return fmt.Errorf("hdm: schema %q already contains %s", s.name, to)
	}
	delete(s.objects, fk)
	s.objects[tk] = o.WithScheme(to)
	for i, k := range s.order {
		if k == fk {
			s.order[i] = tk
			break
		}
	}
	return nil
}

// Has reports whether an object with the given scheme exists.
func (s *Schema) Has(sc Scheme) bool {
	_, ok := s.objects[sc.Key()]
	return ok
}

// Object returns the object with exactly the given scheme.
func (s *Schema) Object(sc Scheme) (*Object, bool) {
	o, ok := s.objects[sc.Key()]
	return o, ok
}

// Objects returns the objects in insertion order.
func (s *Schema) Objects() []*Object {
	out := make([]*Object, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.objects[k])
	}
	return out
}

// All yields the objects in insertion order with their positions,
// without copying them out. The schema must not change while it does.
func (s *Schema) All() iter.Seq2[int, *Object] {
	return func(yield func(int, *Object) bool) {
		for i, k := range s.order {
			if !yield(i, s.objects[k]) {
				return
			}
		}
	}
}

// Schemes returns the schemes of all objects in insertion order.
func (s *Schema) Schemes() []Scheme {
	out := make([]Scheme, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.objects[k].Scheme)
	}
	return out
}

// SortedSchemes returns the schemes in canonical lexicographic order,
// for deterministic reporting.
func (s *Schema) SortedSchemes() []Scheme {
	out := s.Schemes()
	sort.Slice(out, func(i, j int) bool { return CompareSchemes(out[i], out[j]) < 0 })
	return out
}

// Resolve finds the unique object whose scheme equals, or has as suffix,
// the given parts. Exact matches win; otherwise the match must be
// unambiguous. This implements the paper's convention that the modelling
// language and construct kind may be omitted from schemes.
func (s *Schema) Resolve(parts []string) (*Object, error) {
	// The exact match is looked up under a key built on the stack: a
	// query's references are resolved on every ask, and most are exact.
	var buf [128]byte
	key := buf[:0]
	for i, p := range parts {
		if i > 0 {
			key = append(key, '|')
		}
		key = append(key, strings.TrimSpace(p)...)
	}
	if o, ok := s.objects[string(key)]; ok {
		return o, nil
	}
	ref := NewScheme(parts...)
	var found *Object
	for _, k := range s.order {
		o := s.objects[k]
		if ref.SuffixOf(o.Scheme) {
			if found != nil {
				return nil, fmt.Errorf("hdm: schema %q: %s is ambiguous (matches %s and %s)",
					s.name, ref, found.Scheme, o.Scheme)
			}
			found = o
		}
	}
	if found == nil {
		return nil, fmt.Errorf("hdm: schema %q has no object %s", s.name, ref)
	}
	return found, nil
}

// Clone returns a copy of the schema under a new name, which can be
// added to, removed from and renamed in without changing s. The two
// share their objects, which are never changed once in a schema.
func (s *Schema) Clone(name string) *Schema {
	return &Schema{name: name, objects: maps.Clone(s.objects), order: slices.Clone(s.order)}
}

// Identical reports whether two schemas contain exactly the same set of
// schemes (object identity for the purposes of the ident transformation;
// kinds and constructs must agree too).
func Identical(a, b *Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for k, oa := range a.objects {
		ob, ok := b.objects[k]
		if !ok || oa.Kind != ob.Kind || oa.Construct != ob.Construct || oa.Model != ob.Model {
			return false
		}
	}
	return true
}

// Diff returns the schemes present only in a and only in b, each in
// canonical order.
func Diff(a, b *Schema) (onlyA, onlyB []Scheme) {
	for k, o := range a.objects {
		if _, ok := b.objects[k]; !ok {
			onlyA = append(onlyA, o.Scheme)
		}
	}
	for k, o := range b.objects {
		if _, ok := a.objects[k]; !ok {
			onlyB = append(onlyB, o.Scheme)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return CompareSchemes(onlyA[i], onlyA[j]) < 0 })
	sort.Slice(onlyB, func(i, j int) bool { return CompareSchemes(onlyB[i], onlyB[j]) < 0 })
	return onlyA, onlyB
}

// String renders a short description: name and object count.
func (s *Schema) String() string {
	return fmt.Sprintf("schema %s (%d objects)", s.name, s.Len())
}

// Describe renders a multi-line listing of the schema's objects grouped
// by construct, for CLI display.
func (s *Schema) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s: %d objects\n", s.name, s.Len())
	for _, o := range s.Objects() {
		fmt.Fprintf(&b, "  %-10s %s\n", o.Construct, o.Scheme)
	}
	return b.String()
}
