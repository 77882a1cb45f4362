// Package core implements the paper's primary contribution: the
// intersection-schema technique for incremental, pay-as-you-go
// dataspace integration (Brownlow & Poulovassilis, EDBT 2014, §2.2-2.3).
//
// An Integrator drives the workflow: federate the source schemas
// (prefixed union, no integration effort), then iteratively assert
// semantic intersections between extensional schemas via mappings
// tables, fold each intersection into a new global schema — optionally
// dropping objects made redundant — and answer IQL queries at every
// step.
package core

import (
	"fmt"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// SourceQuery is one row of the mappings table's "forward" direction: an
// IQL query over the named extensional schema deriving (part of) the
// extent of an intersection-schema object. An empty Source marks a
// derived concept whose query ranges over previously integrated
// (intersection/global) objects — e.g. the paper's
// uPeptideHitToProteinHit_mm join.
type SourceQuery struct {
	// Source names the extensional (data source) schema; empty for
	// derived concepts.
	Source string `json:"source,omitempty"`
	// Query is IQL source text, written exactly as in the paper: with
	// unqualified scheme references that resolve against Source's
	// schema first.
	Query string `json:"query"`
}

// ReverseQuery is a user-specified reverse (delete-direction) mapping
// for a source object that the tool cannot invert automatically.
type ReverseQuery struct {
	// Source names the extensional schema owning Object.
	Source string `json:"source"`
	// Object is the source object's scheme text, e.g. "<<protein>>".
	Object string `json:"object"`
	// Query is IQL text over the intersection schema recovering
	// Object's extent.
	Query string `json:"query"`
}

// Mapping is one row group of the Intersection Schema Tool's mappings
// table: a target object of the intersection schema plus its forward
// queries (one per contributing source) and optional explicit reverse
// queries (paper Fig. 5). Its JSON form (and SourceQuery's and
// ReverseQuery's) is the mappings table of the daemon's POST /intersect
// and /refine bodies and of `automed integrate` specs.
type Mapping struct {
	// Target is the intersection-schema object's scheme text, e.g.
	// "<<UProtein, accession_num>>".
	Target string `json:"target"`
	// Forward lists the per-source derivations.
	Forward []SourceQuery `json:"forward"`
	// Reverse lists user-specified reverse queries; the tool derives
	// reverse queries automatically for simple forward mappings and
	// defaults to Range Void Any (contract) otherwise.
	Reverse []ReverseQuery `json:"reverse,omitempty"`
}

// Entity is a convenience constructor for an entity (nodal) mapping.
func Entity(target string, forward ...SourceQuery) Mapping {
	return Mapping{Target: target, Forward: forward}
}

// Attribute is a convenience constructor for an attribute (link)
// mapping.
func Attribute(target string, forward ...SourceQuery) Mapping {
	return Mapping{Target: target, Forward: forward}
}

// From builds a SourceQuery.
func From(source, q string) SourceQuery { return SourceQuery{Source: source, Query: q} }

// Derived builds a SourceQuery over already-integrated objects.
func Derived(q string) SourceQuery { return SourceQuery{Query: q} }

// parseTarget parses and classifies a mapping target: arity-1 schemes
// are entities (nodal), deeper schemes attributes (links).
func parseTarget(target string) (hdm.Scheme, hdm.ObjectKind, error) {
	sc, err := hdm.ParseScheme(target)
	if err != nil {
		return hdm.Scheme{}, 0, fmt.Errorf("core: mapping target: %w", err)
	}
	if sc.Arity() == 1 {
		return sc, hdm.Nodal, nil
	}
	return sc, hdm.Link, nil
}

// deriveReverse attempts to invert a simple forward mapping
//
//	[{'TAG', v1, …, vn} | pat <- <<c…>>]
//
// (with pat binding exactly v1…vn in order) into the delete-direction
// query
//
//	[v1 | {'TAG', v1} <- <<T>>]            (n = 1)
//	[{v1, …, vn} | {'TAG', v1, …, vn} <- <<T>>]   (n > 1)
//
// recovering the source object c's extent from the intersection object
// T. It reports the consumed source object and the reverse query, or
// ok=false when the forward query is not of the invertible shape (the
// user must then supply a ReverseQuery or the object is contracted).
func deriveReverse(fwd iql.Expr, target hdm.Scheme) (srcObject []string, rev iql.Expr, ok bool) {
	comp, isComp := fwd.(*iql.Comp)
	if !isComp || len(comp.Quals) != 1 {
		return nil, nil, false
	}
	gen, isGen := comp.Quals[0].(*iql.Generator)
	if !isGen {
		return nil, nil, false
	}
	src, isRef := gen.Src.(*iql.SchemeRef)
	if !isRef {
		return nil, nil, false
	}
	head, isTuple := comp.Head.(*iql.TupleExpr)
	if !isTuple || len(head.Elems) < 2 {
		return nil, nil, false
	}
	tagLit, isLit := head.Elems[0].(*iql.Lit)
	if !isLit || tagLit.Val.Kind != iql.KindString {
		return nil, nil, false
	}
	var headVars []string
	for _, e := range head.Elems[1:] {
		v, isVar := e.(*iql.Var)
		if !isVar {
			return nil, nil, false
		}
		headVars = append(headVars, v.Name)
	}
	// The pattern must bind exactly the head variables, in order.
	var patVars []string
	switch pat := gen.Pat.(type) {
	case *iql.VarPat:
		patVars = []string{pat.Name}
	case *iql.TuplePat:
		for _, pe := range pat.Elems {
			vp, isVP := pe.(*iql.VarPat)
			if !isVP {
				return nil, nil, false
			}
			patVars = append(patVars, vp.Name)
		}
	default:
		return nil, nil, false
	}
	if len(patVars) != len(headVars) {
		return nil, nil, false
	}
	for i := range patVars {
		if patVars[i] != headVars[i] || patVars[i] == "_" {
			return nil, nil, false
		}
	}

	// Build the reverse query.
	revPat := &iql.TuplePat{Elems: []iql.Pattern{&iql.LitPat{Val: tagLit.Val}}}
	for _, v := range headVars {
		revPat.Elems = append(revPat.Elems, &iql.VarPat{Name: v})
	}
	var revHead iql.Expr
	if len(headVars) == 1 {
		revHead = &iql.Var{Name: headVars[0]}
	} else {
		tup := &iql.TupleExpr{}
		for _, v := range headVars {
			tup.Elems = append(tup.Elems, &iql.Var{Name: v})
		}
		revHead = tup
	}
	rev = &iql.Comp{
		Head: revHead,
		Quals: []iql.Qual{&iql.Generator{
			Pat: revPat,
			Src: &iql.SchemeRef{Parts: target.Parts()},
		}},
	}
	return src.Parts, rev, true
}

// deriveParent builds the tool-generated entity derivation for a parent
// entity P from a simple attribute forward query
//
//	[{'TAG', k, x} | {k, x} <- <<t, c>>]  →  [{'TAG', k} | {k, x} <- <<t, c>>]
//
// i.e. the same qualifiers with the value component dropped from the
// head. Reports ok=false for non-simple shapes.
func deriveParent(fwd iql.Expr) (iql.Expr, bool) {
	comp, isComp := fwd.(*iql.Comp)
	if !isComp {
		return nil, false
	}
	head, isTuple := comp.Head.(*iql.TupleExpr)
	if !isTuple || len(head.Elems) < 3 {
		return nil, false
	}
	if lit, isLit := head.Elems[0].(*iql.Lit); !isLit || lit.Val.Kind != iql.KindString {
		return nil, false
	}
	clone := iql.Clone(fwd).(*iql.Comp)
	ch := clone.Head.(*iql.TupleExpr)
	ch.Elems = ch.Elems[:2] // keep {tag, key}
	return clone, true
}
