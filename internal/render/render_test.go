package render

import (
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
)

func TestUnionCompatible(t *testing.T) {
	out := UnionCompatible([]string{"DS1", "DS2"}, "G")
	for _, want := range []string{"G", "US:DS1", "US:DS2", "ident"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestIntersectionTopology(t *testing.T) {
	out := IntersectionTopology("I", []string{"ES1", "ES2"}, []string{"ES3"})
	for _, want := range []string{"| I |", "ES1", "ES3", "contract"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestGlobalSchema(t *testing.T) {
	out := GlobalSchema("G", "I", []string{"ES1"}, []string{"ES2"})
	if !strings.Contains(out, "ES1 - I") {
		t.Errorf("minus operand missing:\n%s", out)
	}
	if !strings.Contains(out, "U") {
		t.Errorf("union missing:\n%s", out)
	}
}

func TestSchemaRendering(t *testing.T) {
	s := hdm.NewSchema("S")
	s.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "sql", "table"))
	s.MustAdd(hdm.NewObject(hdm.MustScheme("<<t, a>>"), hdm.Link, "sql", "column"))
	out := Schema(s)
	if !strings.Contains(out, "t\n") || !strings.Contains(out, ".a") {
		t.Errorf("schema render:\n%s", out)
	}
}

func TestPathwayRendering(t *testing.T) {
	p := transform.NewPathway("A", "B",
		transform.NewAdd(hdm.NewObject(hdm.MustScheme("<<u>>"), hdm.Nodal, "", ""), iql.MustParse("<<t>>")),
		transform.NewContract(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""), nil, nil).WithAuto(),
	)
	out := Pathway(p)
	for _, want := range []string{"A -> B", "1. add", "2. contract", "manual=1", "non-trivial=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCurveRendering(t *testing.T) {
	out := Curve("title", []CurvePoint{
		{Iteration: "F", CumulativeManual: 0, Answerable: nil},
		{Iteration: "I1", CumulativeManual: 6, Answerable: []string{"Q1"}},
		{Iteration: "I5", CumulativeManual: 26, Answerable: []string{"Q1", "Q6"}},
	})
	if !strings.Contains(out, "I1") || !strings.Contains(out, "Q1,Q6") {
		t.Errorf("curve render:\n%s", out)
	}
	// Bars scale with effort.
	lines := strings.Split(out, "\n")
	var bar6, bar26 int
	for _, l := range lines {
		if strings.Contains(l, "I1") {
			bar6 = strings.Count(l, "#")
		}
		if strings.Contains(l, "I5") {
			bar26 = strings.Count(l, "#")
		}
	}
	if bar26 <= bar6 {
		t.Errorf("bars not monotone: %d vs %d", bar6, bar26)
	}
}
