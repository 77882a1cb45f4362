// Package transform implements AutoMed's primitive bidirectional schema
// transformations (the Both-As-View / BAV approach of McBrien &
// Poulovassilis) and the pathways composed from them, as required by the
// intersection-schema technique of Brownlow & Poulovassilis (EDBT 2014).
//
// The six primitives are add, delete, extend, contract, rename and id.
// add/delete carry an IQL query giving the extent of the new/removed
// object in terms of the rest of the schema; extend/contract carry a
// "Range ql qu" query bounding an extent that cannot be derived
// precisely; rename changes an object's scheme; id asserts that two
// objects in syntactically identical schemas are the same. The ident
// operation at whole-schema level expands into a sequence of id steps.
//
// Pathways are automatically reversible: add ↔ delete, extend ↔
// contract, rename and id reverse their arguments (paper §2.1).
package transform

import (
	"fmt"
	"strings"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// Kind enumerates the primitive transformation kinds.
type Kind uint8

// The primitive transformation kinds.
const (
	Add Kind = iota
	Delete
	Extend
	Contract
	Rename
	ID
)

// String names the kind as it appears in pathway listings.
func (k Kind) String() string {
	switch k {
	case Add:
		return "add"
	case Delete:
		return "delete"
	case Extend:
		return "extend"
	case Contract:
		return "contract"
	case Rename:
		return "rename"
	case ID:
		return "id"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts the textual kind name back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "add":
		return Add, nil
	case "delete":
		return Delete, nil
	case "extend":
		return Extend, nil
	case "contract":
		return Contract, nil
	case "rename":
		return Rename, nil
	case "id":
		return ID, nil
	}
	return 0, fmt.Errorf("transform: unknown kind %q", s)
}

// Transformation is a single primitive step. It points at the objects
// it adds, removes or relates rather than copying them: objects are
// never changed once made (hdm.Object), so a step shares the object of
// the schema it was built from — a contract the source object it
// removes, an add the target object it makes — and applying the step,
// or its reverse, puts that very object into a schema. Nothing writes a
// transformation once built, so pathways may share their steps.
type Transformation struct {
	// Object is the object being added, deleted, extended, contracted
	// or renamed; for id it is the object in the first schema. A delete
	// or a contract carries the object it removes whole, so that the
	// automatically derived reverse pathway (whose add and extend steps
	// recreate it) restores it faithfully.
	Object *hdm.Object
	// Query is the IQL query accompanying add/delete (a view
	// definition) or extend/contract (a Range of bounds). Nil for
	// rename and id.
	Query iql.Expr
	// To is the object a rename makes, or the counterpart object of an
	// id. Nil for the other kinds.
	To *hdm.Object
	// Kind is the primitive applied.
	Kind Kind
	// Auto marks transformations generated automatically by the
	// Intersection Schema Tool rather than written by the integrator;
	// the paper's effort metric counts only manual steps.
	Auto bool
}

// NewAdd builds an add step creating object o with extent query q.
func NewAdd(o *hdm.Object, q iql.Expr) Transformation {
	return Transformation{Kind: Add, Object: o, Query: q}
}

// NewDelete builds a delete step removing object o, whose extent is
// recoverable via query q over the remaining objects.
func NewDelete(o *hdm.Object, q iql.Expr) Transformation {
	return Transformation{Kind: Delete, Object: o, Query: q}
}

// NewExtend builds an extend step creating object o with extent known
// only within bounds lo..hi; a nil bound is Void below, Any above.
func NewExtend(o *hdm.Object, lo, hi iql.Expr) Transformation {
	return Transformation{Kind: Extend, Object: o, Query: bounds(lo, hi)}
}

// NewContract builds a contract step removing object o whose extent is
// not precisely derivable; bounds default to Range Void Any when lo and
// hi are nil.
func NewContract(o *hdm.Object, lo, hi iql.Expr) Transformation {
	return Transformation{Kind: Contract, Object: o, Query: bounds(lo, hi)}
}

// voidAny is the Range Void Any of every step built without bounds. An
// intersection pathway has one for each source object it contracts and
// each target its source does not contribute to; expressions are never
// changed once built, so they all share this one.
var voidAny = &iql.RangeExpr{Lo: &iql.Lit{Val: iql.Void()}, Hi: &iql.Lit{Val: iql.Any()}}

// bounds returns Range lo hi, a nil lo standing for Void and a nil hi
// for Any.
func bounds(lo, hi iql.Expr) iql.Expr {
	if lo == nil && hi == nil {
		return voidAny
	}
	if lo == nil {
		lo = voidAny.Lo
	}
	if hi == nil {
		hi = voidAny.Hi
	}
	return &iql.RangeExpr{Lo: lo, Hi: hi}
}

// NewRename builds a rename step from object from to the object to,
// which carries the new scheme.
func NewRename(from, to *hdm.Object) Transformation {
	return Transformation{Kind: Rename, Object: from, To: to}
}

// NewID builds an id step asserting that object a in one schema and b in
// a syntactically identical schema are the same object.
func NewID(a, b *hdm.Object) Transformation {
	return Transformation{Kind: ID, Object: a, To: b}
}

// WithAuto returns a copy marked as tool-generated.
func (t Transformation) WithAuto() Transformation {
	t.Auto = true
	return t
}

// Reverse returns the inverse primitive per the BAV reversibility rules:
// add ↔ delete (same arguments), extend ↔ contract (same arguments),
// rename and id with arguments swapped. Auto marking is preserved.
func (t Transformation) Reverse() Transformation {
	r := t
	switch t.Kind {
	case Add:
		r.Kind = Delete
	case Delete:
		r.Kind = Add
	case Extend:
		r.Kind = Contract
	case Contract:
		r.Kind = Extend
	case Rename, ID:
		r.Object, r.To = t.To, t.Object
	}
	return r
}

// NonTrivial reports whether the step is "non-trivial" in the paper's
// sense: its query part is not Range Void Any. Rename and id steps are
// counted trivial.
func (t Transformation) NonTrivial() bool {
	switch t.Kind {
	case Rename, ID:
		return false
	}
	if t.Query == nil {
		return false
	}
	return !iql.IsVoidAnyRange(t.Query)
}

// Manual reports whether the step was written by the integrator.
func (t Transformation) Manual() bool { return !t.Auto }

// String renders the step as it would appear in a pathway listing, e.g.
// "add <<UProtein>> [{'PEDRO', k} | k <- <<protein>>]".
func (t Transformation) String() string {
	var b strings.Builder
	b.WriteString(t.Kind.String())
	b.WriteString(" ")
	b.WriteString(t.Object.Scheme.String())
	switch t.Kind {
	case Rename, ID:
		b.WriteString(" ")
		b.WriteString(t.To.Scheme.String())
	default:
		if t.Query != nil {
			b.WriteString(" ")
			b.WriteString(t.Query.String())
		}
	}
	if t.Auto {
		b.WriteString("  -- auto")
	}
	return b.String()
}

// Validate checks internal consistency of the step itself (not against
// any schema): schemes well formed, queries present where required.
func (t Transformation) Validate() error {
	if t.Object == nil {
		return fmt.Errorf("transform: %s without an object", t.Kind)
	}
	if err := t.Object.Scheme.Validate(); err != nil {
		return fmt.Errorf("transform: %s: %w", t.Kind, err)
	}
	switch t.Kind {
	case Add, Delete:
		if t.Query == nil {
			return fmt.Errorf("transform: %s %s requires a query", t.Kind, t.Object.Scheme)
		}
	case Extend, Contract:
		if t.Query == nil {
			return fmt.Errorf("transform: %s %s requires a Range query", t.Kind, t.Object.Scheme)
		}
		if _, _, ok := iql.IsRange(t.Query); !ok {
			return fmt.Errorf("transform: %s %s query must be a Range, got %s", t.Kind, t.Object.Scheme, t.Query)
		}
	case Rename, ID:
		if t.To == nil {
			return fmt.Errorf("transform: %s %s without a target", t.Kind, t.Object.Scheme)
		}
		if err := t.To.Scheme.Validate(); err != nil {
			return fmt.Errorf("transform: %s: target: %w", t.Kind, err)
		}
	}
	return nil
}
