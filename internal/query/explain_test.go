package query

import (
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

func TestExplainDerivationTree(t *testing.T) {
	p := New()
	p.AddSource(staticSource(t, "S", map[string]iql.Value{
		"<<t, c>>": iql.Bag(iql.Tuple(iql.Int(1), iql.Str("x"))),
	}))
	p.Define(hdm.MustScheme("<<I, c>>"),
		iql.MustParse("[{'S', k, v} | {k, v} <- <<t, c>>]"), "S->I", "S")
	p.Define(hdm.MustScheme("<<G>>"),
		iql.MustParse("[v | {s, k, v} <- <<I, c>>]"), "I->G", "")

	out := p.Explain(hdm.MustScheme("<<G>>"))
	for _, want := range []string{
		"<<G>>: 1 derivation(s)",
		"via I->G",
		"<<I, c>>: 1 derivation(s)",
		"scope S",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Source objects explain as leaves.
	leaf := p.Explain(hdm.MustScheme("<<t, c>>"))
	if !strings.Contains(leaf, "source object") {
		t.Errorf("leaf explain:\n%s", leaf)
	}
	// Unknown objects are flagged.
	unk := p.Explain(hdm.MustScheme("<<zzz>>"))
	if !strings.Contains(unk, "UNKNOWN") {
		t.Errorf("unknown explain:\n%s", unk)
	}
}

func TestExplainCycleSafe(t *testing.T) {
	p := New()
	p.Define(hdm.MustScheme("<<a>>"), iql.MustParse("<<b>>"), "x", "")
	p.Define(hdm.MustScheme("<<b>>"), iql.MustParse("<<a>>"), "x", "")
	out := p.Explain(hdm.MustScheme("<<a>>"))
	if !strings.Contains(out, "(see above)") {
		t.Errorf("cycle not cut:\n%s", out)
	}
}

// TestExplainFlagsAmbiguity: a reference evaluation refuses as
// ambiguous is reported as such — at the top and inside a derivation —
// instead of being pinned on the first registered source.
func TestExplainFlagsAmbiguity(t *testing.T) {
	p := New()
	for _, name := range []string{"A", "B"} {
		p.AddSource(staticSource(t, name, map[string]iql.Value{"<<t>>": iql.Bag(iql.Int(1))}))
	}
	if _, err := p.Query("count(<<t>>)"); err == nil || !strings.Contains(err.Error(), "ambiguous across sources A, B") {
		t.Fatalf("evaluation error = %v, want ambiguity", err)
	}
	if out := p.Explain(hdm.MustScheme("<<t>>")); !strings.Contains(out, "<<t>>: AMBIGUOUS across A, B") {
		t.Errorf("top-level explain:\n%s", out)
	}
	p.Define(hdm.MustScheme("<<u>>"), iql.MustParse("[x | x <- <<t>>]"), "x", "")
	if out := p.Explain(hdm.MustScheme("<<u>>")); !strings.Contains(out, "<<t>>: AMBIGUOUS across A, B") {
		t.Errorf("nested explain:\n%s", out)
	}
	// Scoped, the same reference is that source's own object: a leaf.
	p.Define(hdm.MustScheme("<<w>>"), iql.MustParse("[x | x <- <<t>>]"), "x", "B")
	if out := p.Explain(hdm.MustScheme("<<w>>")); strings.Contains(out, "AMBIGUOUS") {
		t.Errorf("scoped reference flagged ambiguous:\n%s", out)
	}
}
