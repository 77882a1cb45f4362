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
type Kind int

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

// Transformation is a single primitive step.
type Transformation struct {
	// Kind is the primitive applied.
	Kind Kind
	// Object is the scheme of the object being added, deleted,
	// extended, contracted or renamed; for id it is the object in the
	// first schema.
	Object hdm.Scheme
	// Query is the IQL query accompanying add/delete (a view
	// definition) or extend/contract (a Range of bounds). Nil for
	// rename and id.
	Query iql.Expr
	// To is the new scheme for rename, or the counterpart object for
	// id.
	To hdm.Scheme
	// ObjKind, Model and Construct describe the object created by an
	// add or extend step (metadata for the new schema object).
	ObjKind   hdm.ObjectKind
	Model     string
	Construct string
	// Auto marks transformations generated automatically by the
	// Intersection Schema Tool rather than written by the integrator;
	// the paper's effort metric counts only manual steps.
	Auto bool
}

// NewAdd builds an add step creating object sc with extent query q.
func NewAdd(sc hdm.Scheme, q iql.Expr, kind hdm.ObjectKind, model, construct string) Transformation {
	return Transformation{Kind: Add, Object: sc, Query: q, ObjKind: kind, Model: model, Construct: construct}
}

// NewDelete builds a delete step removing object sc, whose extent is
// recoverable via query q over the remaining objects.
func NewDelete(sc hdm.Scheme, q iql.Expr) Transformation {
	return Transformation{Kind: Delete, Object: sc, Query: q}
}

// NewExtend builds an extend step creating object sc with extent known
// only within bounds lo..hi; a nil bound is Void below, Any above.
func NewExtend(sc hdm.Scheme, lo, hi iql.Expr, kind hdm.ObjectKind, model, construct string) Transformation {
	return Transformation{
		Kind: Extend, Object: sc, Query: bounds(lo, hi),
		ObjKind: kind, Model: model, Construct: construct,
	}
}

// NewContract builds a contract step removing object sc whose extent is
// not precisely derivable; bounds default to Range Void Any when lo and
// hi are nil.
func NewContract(sc hdm.Scheme, lo, hi iql.Expr) Transformation {
	return Transformation{Kind: Contract, Object: sc, Query: bounds(lo, hi)}
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

// NewRename builds a rename step.
func NewRename(from, to hdm.Scheme) Transformation {
	return Transformation{Kind: Rename, Object: from, To: to}
}

// NewID builds an id step asserting that object a in one schema and b in
// a syntactically identical schema are the same object.
func NewID(a, b hdm.Scheme) Transformation {
	return Transformation{Kind: ID, Object: a, To: b}
}

// WithAuto returns a copy marked as tool-generated.
func (t Transformation) WithAuto() Transformation {
	t.Auto = true
	return t
}

// WithMeta returns a copy carrying the object's construct metadata.
// Delete and contract steps should carry the metadata of the object
// they remove so that the automatically derived reverse pathway (whose
// add/extend steps recreate the object) restores it faithfully.
func (t Transformation) WithMeta(kind hdm.ObjectKind, model, construct string) Transformation {
	t.ObjKind = kind
	t.Model = model
	t.Construct = construct
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
	b.WriteString(t.Object.String())
	switch t.Kind {
	case Rename, ID:
		b.WriteString(" ")
		b.WriteString(t.To.String())
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
	if err := t.Object.Validate(); err != nil {
		return fmt.Errorf("transform: %s: %w", t.Kind, err)
	}
	switch t.Kind {
	case Add, Delete:
		if t.Query == nil {
			return fmt.Errorf("transform: %s %s requires a query", t.Kind, t.Object)
		}
	case Extend, Contract:
		if t.Query == nil {
			return fmt.Errorf("transform: %s %s requires a Range query", t.Kind, t.Object)
		}
		if _, _, ok := iql.IsRange(t.Query); !ok {
			return fmt.Errorf("transform: %s %s query must be a Range, got %s", t.Kind, t.Object, t.Query)
		}
	case Rename, ID:
		if err := t.To.Validate(); err != nil {
			return fmt.Errorf("transform: %s: target: %w", t.Kind, err)
		}
	}
	return nil
}
