// Package hdm implements the Hypergraph Data Model (HDM), the low-level
// common data model used by the AutoMed heterogeneous data integration
// system that this library reproduces.
//
// Every schema object is identified by a scheme: an ordered list of name
// parts written ⟨p1, p2, …, pn⟩ (rendered here as <<p1, p2, …, pn>>).
// For the relational modelling language a table t has scheme <<t>> and a
// column c of t has scheme <<t, c>>; fully qualified forms such as
// <<sql, table, t>> are also accepted and matched by suffix.
package hdm

import (
	"fmt"
	"slices"
	"strings"
)

// Scheme identifies a schema object by an ordered, non-empty list of
// name parts. The zero value is the empty (invalid) scheme. The
// canonical map key is computed once at construction: schemes are keyed
// far more often than they are built (every extent lookup, definition
// registration and cache probe keys its scheme), so Key never joins.
type Scheme struct {
	parts []string
	key   string
}

// mkScheme builds a scheme from owned parts, precomputing its key.
func mkScheme(parts []string) Scheme {
	return Scheme{parts: parts, key: strings.Join(parts, "|")}
}

// NewScheme builds a scheme from its parts. Parts are trimmed of
// surrounding whitespace; empty parts are rejected by Validate, not here,
// so that callers can construct then check.
func NewScheme(parts ...string) Scheme {
	cp := make([]string, len(parts))
	for i, p := range parts {
		cp[i] = strings.TrimSpace(p)
	}
	return mkScheme(cp)
}

// ParseScheme parses the textual form of a scheme. Both the bare form
// "a, b" and the delimited form "<<a, b>>" are accepted.
func ParseScheme(s string) (Scheme, error) {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "<<") {
		if !strings.HasSuffix(t, ">>") {
			return Scheme{}, fmt.Errorf("hdm: unterminated scheme %q", s)
		}
		t = t[2 : len(t)-2]
	}
	if strings.TrimSpace(t) == "" {
		return Scheme{}, fmt.Errorf("hdm: empty scheme %q", s)
	}
	raw := strings.Split(t, ",")
	sc := NewScheme(raw...)
	if err := sc.Validate(); err != nil {
		return Scheme{}, err
	}
	return sc, nil
}

// MustScheme is ParseScheme that panics on error; intended for
// package-level literals and tests.
func MustScheme(s string) Scheme {
	sc, err := ParseScheme(s)
	if err != nil {
		panic(err)
	}
	return sc
}

// Validate reports whether the scheme is well formed: at least one part,
// no empty parts, and no part containing the reserved characters
// ',', '|', '<' or '>'.
func (s Scheme) Validate() error {
	if len(s.parts) == 0 {
		return fmt.Errorf("hdm: scheme has no parts")
	}
	for i, p := range s.parts {
		if p == "" {
			return fmt.Errorf("hdm: scheme part %d is empty", i)
		}
		if strings.ContainsAny(p, ",|<>") {
			return fmt.Errorf("hdm: scheme part %q contains a reserved character", p)
		}
	}
	return nil
}

// IsZero reports whether the scheme is the zero (empty) scheme.
func (s Scheme) IsZero() bool { return len(s.parts) == 0 }

// Arity returns the number of parts.
func (s Scheme) Arity() int { return len(s.parts) }

// Part returns the i-th part.
func (s Scheme) Part(i int) string { return s.parts[i] }

// First returns the first part, or "" for the zero scheme.
func (s Scheme) First() string {
	if len(s.parts) == 0 {
		return ""
	}
	return s.parts[0]
}

// Last returns the final part, or "" for the zero scheme.
func (s Scheme) Last() string {
	if len(s.parts) == 0 {
		return ""
	}
	return s.parts[len(s.parts)-1]
}

// Parts returns a copy of the scheme's parts.
func (s Scheme) Parts() []string {
	cp := make([]string, len(s.parts))
	copy(cp, s.parts)
	return cp
}

// Key returns a canonical string usable as a map key. Distinct schemes
// have distinct keys because parts may not contain '|'. The key is
// precomputed at construction; only schemes built outside the package
// constructors fall back to joining.
func (s Scheme) Key() string {
	if s.key == "" && len(s.parts) > 0 {
		return strings.Join(s.parts, "|")
	}
	return s.key
}

// String renders the scheme in its delimited textual form, e.g.
// "<<protein, accession_num>>". ParseScheme(s.String()) == s.
func (s Scheme) String() string { return "<<" + strings.Join(s.parts, ", ") + ">>" }

// Equal reports whether two schemes have identical parts.
func (s Scheme) Equal(t Scheme) bool {
	if len(s.parts) != len(t.parts) {
		return false
	}
	for i := range s.parts {
		if s.parts[i] != t.parts[i] {
			return false
		}
	}
	return true
}

// Is reports whether the scheme's parts are exactly parts.
func (s Scheme) Is(parts []string) bool { return slices.Equal(s.parts, parts) }

// WithPrefix returns a copy of the scheme whose first part carries the
// given provenance prefix, e.g. <<protein,acc>>.WithPrefix("pedro") is
// <<pedro_protein, acc>>. Federated schemas use this to disambiguate
// equally named objects from different sources (paper §2.2).
func (s Scheme) WithPrefix(prefix string) Scheme {
	if len(s.parts) == 0 || prefix == "" {
		return s
	}
	cp := s.Parts()
	cp[0] = prefix + "_" + cp[0]
	return mkScheme(cp)
}

// IsPrefixed reports whether s is of.WithPrefix(prefix), without
// making that scheme.
func (s Scheme) IsPrefixed(of Scheme, prefix string) bool {
	k, ok := s.Key(), of.Key()
	if len(of.parts) == 0 || prefix == "" {
		return k == ok
	}
	return len(k) == len(prefix)+1+len(ok) && k[:len(prefix)] == prefix && k[len(prefix)] == '_' && k[len(prefix)+1:] == ok
}

// HasPrefix reports whether the first part carries the given provenance
// prefix (as applied by WithPrefix).
func (s Scheme) HasPrefix(prefix string) bool {
	return len(s.parts) > 0 && strings.HasPrefix(s.parts[0], prefix+"_")
}

// TrimPrefix removes the provenance prefix from the first part if
// present, returning the original scheme otherwise.
func (s Scheme) TrimPrefix(prefix string) Scheme {
	if !s.HasPrefix(prefix) {
		return s
	}
	cp := s.Parts()
	cp[0] = strings.TrimPrefix(cp[0], prefix+"_")
	return mkScheme(cp)
}

// Extend returns a new scheme with additional trailing parts, e.g.
// <<protein>>.Extend("organism") is <<protein, organism>>.
func (s Scheme) Extend(parts ...string) Scheme {
	cp := make([]string, 0, len(s.parts)+len(parts))
	cp = append(cp, s.parts...)
	for _, p := range parts {
		cp = append(cp, strings.TrimSpace(p))
	}
	return mkScheme(cp)
}

// Parent returns the scheme with the final part removed; the zero scheme
// if there is at most one part. For relational columns this is the table.
func (s Scheme) Parent() Scheme {
	if len(s.parts) <= 1 {
		return Scheme{}
	}
	return mkScheme(s.Parts()[:len(s.parts)-1])
}

// SuffixOf reports whether s is a (proper or improper) suffix of t. It is
// used to resolve user-written schemes that omit the modelling language
// and construct kind, e.g. <<protein>> against <<sql, table, protein>>.
func (s Scheme) SuffixOf(t Scheme) bool {
	if len(s.parts) > len(t.parts) {
		return false
	}
	off := len(t.parts) - len(s.parts)
	for i := range s.parts {
		if s.parts[i] != t.parts[off+i] {
			return false
		}
	}
	return true
}

// CompareSchemes orders schemes lexicographically by parts; usable with
// sort.Slice for deterministic listings.
func CompareSchemes(a, b Scheme) int {
	n := len(a.parts)
	if len(b.parts) < n {
		n = len(b.parts)
	}
	for i := 0; i < n; i++ {
		if a.parts[i] != b.parts[i] {
			if a.parts[i] < b.parts[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a.parts) < len(b.parts):
		return -1
	case len(a.parts) > len(b.parts):
		return 1
	}
	return 0
}
