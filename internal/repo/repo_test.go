package repo

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
)

func schemaWith(name string, schemes ...string) *hdm.Schema {
	s := hdm.NewSchema(name)
	for _, sc := range schemes {
		s.MustAdd(hdm.NewObject(hdm.MustScheme(sc), hdm.Nodal, "sql", "table"))
	}
	return s
}

func TestAddSchema(t *testing.T) {
	r := New()
	if err := r.AddSchema(schemaWith("A", "<<x>>")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(schemaWith("A")); err == nil {
		t.Error("duplicate schema accepted")
	}
	if err := r.AddSchema(nil); err == nil {
		t.Error("nil schema accepted")
	}
	if err := r.AddSchema(hdm.NewSchema("")); err == nil {
		t.Error("unnamed schema accepted")
	}
	if got := r.SchemaNames(); len(got) != 1 || got[0] != "A" {
		t.Errorf("SchemaNames = %v", got)
	}
	if _, ok := r.Schema("A"); !ok {
		t.Error("Schema lookup failed")
	}
}

func pathwayAB() *transform.Pathway {
	return transform.NewPathway("A", "B",
		transform.NewAdd(hdm.NewObject(hdm.MustScheme("<<y>>"), hdm.Nodal, "sql", "table"), iql.MustParse("[k | k <- <<x>>]")),
		transform.NewDelete(hdm.NewObject(hdm.MustScheme("<<x>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<y>>]")),
	)
}

func TestAddPathwayChecked(t *testing.T) {
	r := New()
	if err := r.AddSchema(schemaWith("A", "<<x>>")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(schemaWith("B", "<<y>>")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPathway(pathwayAB(), true); err != nil {
		t.Fatalf("checked pathway rejected: %v", err)
	}
	// A pathway that does not reproduce the stored target fails check.
	bad := transform.NewPathway("A", "B",
		transform.NewAdd(hdm.NewObject(hdm.MustScheme("<<z>>"), hdm.Nodal, "sql", "table"), iql.MustParse("<<x>>")))
	if err := r.AddPathway(bad, true); err == nil {
		t.Error("wrong pathway passed check")
	}
	// Pathways referencing unknown schemas fail.
	if err := r.AddPathway(transform.NewPathway("A", "Z"), false); err == nil {
		t.Error("pathway to unknown schema accepted")
	}
}

func TestPathwaysFromInto(t *testing.T) {
	r := New()
	r.AddSchema(schemaWith("A", "<<x>>"))
	r.AddSchema(schemaWith("B", "<<y>>"))
	if err := r.AddPathway(pathwayAB(), false); err != nil {
		t.Fatal(err)
	}
	if len(r.PathwaysFrom("A")) != 1 {
		t.Error("PathwaysFrom(A) wrong")
	}
	if len(r.PathwaysFrom("B")) != 0 {
		t.Error("PathwaysFrom(B) should be empty")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := New()
	r.AddSchema(schemaWith("A", "<<x>>"))
	r.AddSchema(schemaWith("B", "<<y>>"))
	link := hdm.NewSchema("L")
	link.MustAdd(hdm.NewObject(hdm.MustScheme("<<t, c>>"), hdm.Link, "sql", "column"))
	r.AddSchema(link)
	pw := transform.NewPathway("A", "B",
		transform.NewAdd(hdm.NewObject(hdm.MustScheme("<<y>>"), hdm.Nodal, "sql", "table"),
			iql.MustParse("[{'S', k} | k <- <<x>>]")),
		transform.NewExtend(hdm.NewObject(hdm.MustScheme("<<w>>"), hdm.Link, "", ""),
			&iql.Lit{Val: iql.Void()}, &iql.Lit{Val: iql.Any()}).WithAuto(),
		transform.NewRename(hdm.NewObject(hdm.MustScheme("<<x>>"), hdm.Nodal, "", ""), hdm.NewObject(hdm.MustScheme("<<x2>>"), hdm.Nodal, "", "")),
		transform.NewID(hdm.NewObject(hdm.MustScheme("<<y>>"), hdm.Nodal, "", ""), hdm.NewObject(hdm.MustScheme("<<y>>"), hdm.Nodal, "", "")),
		transform.NewContract(hdm.NewObject(hdm.MustScheme("<<x2>>"), hdm.Nodal, "", ""), nil, nil).WithAuto(),
	)
	if err := r.AddPathway(pw, false); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.SchemaNames()) != 3 {
		t.Errorf("schemas lost: %v", back.SchemaNames())
	}
	lb, _ := back.Schema("L")
	obj, _ := lb.Object(hdm.MustScheme("<<t, c>>"))
	if obj == nil || obj.Kind != hdm.Link || obj.Construct != "column" {
		t.Errorf("object metadata lost: %+v", obj)
	}
	ps := back.Pathways()
	if len(ps) != 1 || ps[0].Len() != 5 {
		t.Fatalf("pathways lost: %v", ps)
	}
	for i, s := range ps[0].Steps {
		if s.String() != pw.Steps[i].String() {
			t.Errorf("step %d: %q != %q", i, s.String(), pw.Steps[i].String())
		}
		if s.Auto != pw.Steps[i].Auto {
			t.Errorf("step %d auto flag lost", i)
		}
	}
	// Second round trip is stable.
	var buf2 bytes.Buffer
	if err := back.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("persistence not canonical across round trips")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version": 99}`))); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(
		`{"version":1,"schemas":[{"name":"A","objects":[{"scheme":"<<>>","kind":"nodal"}]}]}`))); err == nil {
		t.Error("bad scheme accepted")
	}
	// One document, then nothing but white space — as a session file.
	if _, err := Load(strings.NewReader(`{"version":1,"schemas":null,"pathways":null} {"oops"`)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := Load(strings.NewReader("{\"version\":1,\"schemas\":null,\"pathways\":null}\n\t ")); err != nil {
		t.Errorf("trailing white space refused: %v", err)
	}
}

func TestStats(t *testing.T) {
	r := New()
	r.AddSchema(schemaWith("A", "<<x>>"))
	if got := r.Stats(); got != "1 schemas, 0 pathways, 0 transformation steps" {
		t.Errorf("Stats = %q", got)
	}
}

// TestCloneIsAddedToAlone: what is added to a clone is not in the
// repository it was cloned from, and the reverse.
func TestCloneIsAddedToAlone(t *testing.T) {
	r := New()
	for _, name := range []string{"A", "B"} {
		if err := r.AddSchema(hdm.NewSchema(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddPathway(transform.NewPathway("A", "B"), false); err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	if err := c.AddSchema(hdm.NewSchema("C")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPathway(transform.NewPathway("B", "C"), false); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(hdm.NewSchema("D")); err != nil {
		t.Fatal(err)
	}
	if got := r.SchemaNames(); !slices.Equal(got, []string{"A", "B", "D"}) {
		t.Errorf("the original holds %v", got)
	}
	if got := c.SchemaNames(); !slices.Equal(got, []string{"A", "B", "C"}) {
		t.Errorf("the clone holds %v", got)
	}
	if len(r.Pathways()) != 1 || len(c.Pathways()) != 2 {
		t.Errorf("the original holds %d pathways, the clone %d: want 1 and 2", len(r.Pathways()), len(c.Pathways()))
	}
}
