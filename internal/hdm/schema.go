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
//
// A schema made by NewVersion is a version: it is never changed, any
// number of goroutines may read it at once, and it shares its structure
// with the schema it was made from. Its objects, in order, are its
// parts, one after another. Its index is either its own objects, or its
// base — the index of an earlier schema, never written — overlaid by
// objects, the keys it has that base lacks or holds another object
// under, less gone, the keys of base it lacks: a lookup is at most three
// map lookups however many versions share a base.
type Schema struct {
	name    string
	objects map[string]*Object
	order   []*Object

	parts [][]*Object
	base  map[string]*Object
	gone  map[string]struct{}
	n     int
}

// NewSchema returns an empty schema with the given name.
func NewSchema(name string) *Schema {
	return &Schema{
		name:    name,
		objects: make(map[string]*Object),
	}
}

// NewVersion returns the version named name whose objects are those of
// parts, in order. The parts are shared, not copied: they, and prev,
// must never change after. prev is the schema the version is made from,
// or nil: the version holds prev's objects and added, less the keys in
// removed, which prev holds; an added object's key is one prev lacks or
// one in removed. It is an error for two of its objects to share a key.
//
// The version's index is prev's overlaid by the change while the
// overlay stays small beside the base it overlays — d keys over a base
// of n while d² ≤ 2n — and is made afresh from the parts once it would
// not, or without a prev. A version that adds a objects then copies an
// overlay of at most √(2n) keys, and indexes n objects afresh once in
// about √(2n)/a versions: about √(2n) keys a version either way, where
// indexing each afresh costs n.
func NewVersion(name string, prev *Schema, parts [][]*Object, added []*Object, removed []string) (*Schema, error) {
	if parts == nil {
		parts = [][]*Object{} // a version's parts are never nil
	}
	v := &Schema{name: name, parts: parts}
	for _, p := range parts {
		v.n += len(p)
	}
	var over map[string]*Object
	var gone map[string]struct{}
	if prev != nil {
		if want := prev.Len() + len(added) - len(removed); want != v.n {
			return nil, fmt.Errorf("hdm: version %q has %d objects in its parts, not the %d its change leaves", name, v.n, want)
		}
		if prev.base != nil {
			v.base, over, gone = prev.base, prev.objects, prev.gone
		} else {
			v.base = prev.objects
		}
	}
	if d := len(over) + len(gone) + len(added) + len(removed); v.base == nil || d*d > 2*len(v.base) {
		v.base = nil
		v.objects = make(map[string]*Object, v.n)
		for _, p := range parts {
			for _, o := range p {
				if err := v.index(o); err != nil {
					return nil, err
				}
			}
		}
		return v, nil
	}
	v.objects = make(map[string]*Object, len(over)+len(added))
	maps.Copy(v.objects, over)
	if len(gone)+len(removed) > 0 {
		v.gone = make(map[string]struct{}, len(gone)+len(removed))
		maps.Copy(v.gone, gone)
	}
	for _, k := range removed {
		delete(v.objects, k)
		if _, ok := v.base[k]; ok {
			v.gone[k] = struct{}{}
		}
	}
	for _, o := range added {
		if err := v.index(o); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// index adds o to the index of a version being made.
func (s *Schema) index(o *Object) error {
	k := o.Scheme.Key()
	if _, dup := lookup(s, k); dup {
		return fmt.Errorf("hdm: schema %q already contains %s", s.name, o.Scheme)
	}
	s.objects[k] = o
	return nil
}

// lookup returns the object of s under the key k. A key laid out in
// bytes is looked up without a copy: each map index converts it in
// place.
func lookup[K string | []byte](s *Schema, k K) (*Object, bool) {
	if o, ok := s.objects[string(k)]; ok || s.base == nil {
		return o, ok
	}
	if _, ok := s.gone[string(k)]; ok {
		return nil, false
	}
	o, ok := s.base[string(k)]
	return o, ok
}

// changeable refuses a change to a version.
func (s *Schema) changeable() error {
	if s.parts != nil {
		return fmt.Errorf("hdm: schema %q is a version and never changes", s.name)
	}
	return nil
}

// Name returns the schema's name.
func (s *Schema) Name() string { return s.name }

// Len returns the number of objects.
func (s *Schema) Len() int {
	if s.parts != nil {
		return s.n
	}
	return len(s.order)
}

// Add inserts an object; it is an error if an object with the same
// scheme already exists.
func (s *Schema) Add(o *Object) error {
	if err := s.changeable(); err != nil {
		return err
	}
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
	s.order = append(s.order, o)
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
	if err := s.changeable(); err != nil {
		return err
	}
	k := sc.Key()
	o, ok := s.objects[k]
	if !ok {
		return fmt.Errorf("hdm: schema %q does not contain %s", s.name, sc)
	}
	delete(s.objects, k)
	i := slices.Index(s.order, o)
	s.order = slices.Delete(s.order, i, i+1)
	return nil
}

// Rename changes the scheme of an existing object. The new scheme must
// not clash with another object.
func (s *Schema) Rename(from, to Scheme) error {
	if err := s.changeable(); err != nil {
		return err
	}
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
	r := o.WithScheme(to)
	s.objects[tk] = r
	s.order[slices.Index(s.order, o)] = r
	return nil
}

// Has reports whether an object with the given scheme exists.
func (s *Schema) Has(sc Scheme) bool {
	_, ok := lookup(s, sc.Key())
	return ok
}

// Object returns the object with exactly the given scheme.
func (s *Schema) Object(sc Scheme) (*Object, bool) {
	return lookup(s, sc.Key())
}

// Objects returns the objects in insertion order.
func (s *Schema) Objects() []*Object {
	out := make([]*Object, 0, s.Len())
	for _, o := range s.All() {
		out = append(out, o)
	}
	return out
}

// Order returns the objects in insertion order: the schema's own, not a
// copy, unless it is a version. The caller must not change them, and
// the schema must not change after.
func (s *Schema) Order() []*Object {
	if s.parts != nil {
		return s.Objects()
	}
	return slices.Clip(s.order)
}

// All yields the objects in insertion order with their positions,
// without copying them out. The schema must not change while it does.
func (s *Schema) All() iter.Seq2[int, *Object] {
	return func(yield func(int, *Object) bool) {
		if s.parts == nil {
			for i, o := range s.order {
				if !yield(i, o) {
					return
				}
			}
			return
		}
		i := 0
		for _, p := range s.parts {
			for _, o := range p {
				if !yield(i, o) {
					return
				}
				i++
			}
		}
	}
}

// Schemes returns the schemes of all objects in insertion order.
func (s *Schema) Schemes() []Scheme {
	out := make([]Scheme, 0, s.Len())
	for _, o := range s.All() {
		out = append(out, o.Scheme)
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
	if o, ok := lookup(s, key); ok {
		return o, nil
	}
	ref := NewScheme(parts...)
	var found *Object
	for _, o := range s.All() {
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
// added to, removed from and renamed in without changing s — a version
// too. The two share their objects, which are never changed once in a
// schema.
func (s *Schema) Clone(name string) *Schema {
	if s.parts == nil {
		return &Schema{name: name, objects: maps.Clone(s.objects), order: slices.Clone(s.order)}
	}
	c := &Schema{name: name, objects: make(map[string]*Object, s.n), order: s.Objects()}
	for _, o := range c.order {
		c.objects[o.Scheme.Key()] = o
	}
	return c
}

// Identical reports whether two schemas contain exactly the same set of
// schemes (object identity for the purposes of the ident transformation;
// kinds and constructs must agree too).
func Identical(a, b *Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, oa := range a.All() {
		ob, ok := lookup(b, oa.Scheme.Key())
		if !ok || oa.Kind != ob.Kind || oa.Construct != ob.Construct || oa.Model != ob.Model {
			return false
		}
	}
	return true
}

// Diff returns the schemes present only in a and only in b, each in
// canonical order.
func Diff(a, b *Schema) (onlyA, onlyB []Scheme) {
	for _, o := range a.All() {
		if !b.Has(o.Scheme) {
			onlyA = append(onlyA, o.Scheme)
		}
	}
	for _, o := range b.All() {
		if !a.Has(o.Scheme) {
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
