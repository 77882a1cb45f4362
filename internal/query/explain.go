package query

import (
	"fmt"
	"strings"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// Explain renders the derivation tree of a virtual object: every
// registered derivation with its provenance pathway and scope, and
// recursively the derivations of the virtual objects each query
// references. References are resolved by resolve, so the tree names the
// source evaluation would read and flags the references it would refuse
// as ambiguous. This is the programmatic analogue of AutoMed's Extent
// Tool, which the paper's workflow uses to verify integrations (step 6).
func (p *Processor) Explain(sc hdm.Scheme) string {
	var b strings.Builder
	p.explain(&b, p.resolve("", sc.Parts()), sc.Parts(), 0, make(map[string]bool))
	return b.String()
}

func (p *Processor) explain(b *strings.Builder, r resolution, parts []string, depth int, seen map[string]bool) {
	indent := strings.Repeat("  ", depth)
	ref := "<<" + strings.Join(parts, ", ") + ">>"
	switch r.kind {
	case refScoped, refGlobal:
		fmt.Fprintf(b, "%s%s: source object %s in %s\n", indent, ref, r.sc, r.src.name)
		return
	case refAmbiguous:
		fmt.Fprintf(b, "%s%s: AMBIGUOUS across %s\n", indent, ref, strings.Join(r.names, ", "))
		return
	case refUnknown:
		fmt.Fprintf(b, "%s%s: UNKNOWN\n", indent, ref)
		return
	}
	if seen[r.key] {
		fmt.Fprintf(b, "%s%s: (see above)\n", indent, ref)
		return
	}
	seen[r.key] = true
	fmt.Fprintf(b, "%s%s: %d derivation(s)\n", indent, ref, len(r.derivs))
	for i, d := range r.derivs {
		kind := "add"
		if d.Lower {
			kind = "extend (lower bound)"
		}
		scope := d.Scope
		if scope == "" {
			scope = "unscoped"
		}
		fmt.Fprintf(b, "%s  [%d] %s via %s, scope %s:\n%s      %s\n",
			indent, i+1, kind, d.Via, scope, indent, d.Query)
		// Recurse into what this derivation's references name in its
		// scope. Source objects are leaves and stay implicit; virtual
		// objects unfold further, and ambiguous references are flagged
		// because evaluation would fail on them.
		for _, rp := range iql.UniqueSchemeRefs(d.Query) {
			if rr := p.resolve(d.Scope, rp); rr.kind == refVirtual || rr.kind == refAmbiguous {
				p.explain(b, rr, rp, depth+2, seen)
			}
		}
	}
}
