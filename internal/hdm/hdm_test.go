package hdm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSchemeParsePrint(t *testing.T) {
	cases := map[string]string{
		"<<protein>>":                "<<protein>>",
		"<<protein, accession_num>>": "<<protein, accession_num>>",
		"protein, accession_num":     "<<protein, accession_num>>",
		"<<sql, table, protein>>":    "<<sql, table, protein>>",
		"<< spaced ,  parts >>":      "<<spaced, parts>>",
		"<<accession num>>":          "<<accession num>>", // embedded space, as in the paper
	}
	for in, want := range cases {
		sc, err := ParseScheme(in)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", in, err)
			continue
		}
		if sc.String() != want {
			t.Errorf("ParseScheme(%q).String() = %q, want %q", in, sc.String(), want)
		}
	}
}

func TestSchemeParseErrors(t *testing.T) {
	for _, in := range []string{"", "<<>>", "<<a", "<<a,>>", "<<,a>>", "<<a|b>>"} {
		if _, err := ParseScheme(in); err == nil {
			t.Errorf("ParseScheme(%q) succeeded, want error", in)
		}
	}
}

// schemePart generates a safe scheme part for property tests.
func schemePart(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz_0123456789"
	n := 1 + r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

type genScheme struct{ parts []string }

func (genScheme) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = schemePart(r)
	}
	return reflect.ValueOf(genScheme{parts: parts})
}

func TestSchemeRoundTripProperty(t *testing.T) {
	f := func(g genScheme) bool {
		sc := NewScheme(g.parts...)
		rt, err := ParseScheme(sc.String())
		if err != nil {
			return false
		}
		return rt.Equal(sc) && rt.Key() == sc.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchemeKeyInjectiveProperty(t *testing.T) {
	f := func(a, b genScheme) bool {
		sa, sb := NewScheme(a.parts...), NewScheme(b.parts...)
		return (sa.Key() == sb.Key()) == sa.Equal(sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchemePrefixRoundTripProperty(t *testing.T) {
	f := func(g genScheme) bool {
		sc := NewScheme(g.parts...)
		p := sc.WithPrefix("pedro")
		return p.HasPrefix("pedro") && p.TrimPrefix("pedro").Equal(sc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchemeSuffixOf(t *testing.T) {
	full := MustScheme("<<sql, table, protein>>")
	cases := map[string]bool{
		"<<protein>>":                true,
		"<<table, protein>>":         true,
		"<<sql, table, protein>>":    true,
		"<<sql, table>>":             false,
		"<<other>>":                  false,
		"<<x, sql, table, protein>>": false,
	}
	for in, want := range cases {
		sc := MustScheme(in)
		if got := sc.SuffixOf(full); got != want {
			t.Errorf("%s.SuffixOf(%s) = %v, want %v", sc, full, got, want)
		}
	}
}

func TestSchemeHelpers(t *testing.T) {
	sc := MustScheme("<<protein, accession_num>>")
	if sc.Arity() != 2 || sc.First() != "protein" || sc.Last() != "accession_num" {
		t.Errorf("helpers broken: %v %v %v", sc.Arity(), sc.First(), sc.Last())
	}
	if !sc.Parent().Equal(MustScheme("<<protein>>")) {
		t.Errorf("Parent = %s", sc.Parent())
	}
	if !MustScheme("<<protein>>").Parent().IsZero() {
		t.Error("Parent of arity-1 scheme should be zero")
	}
	ext := MustScheme("<<protein>>").Extend("organism")
	if !ext.Equal(MustScheme("<<protein, organism>>")) {
		t.Errorf("Extend = %s", ext)
	}
	if CompareSchemes(MustScheme("<<a>>"), MustScheme("<<a, b>>")) >= 0 {
		t.Error("prefix should order before extension")
	}
	if CompareSchemes(MustScheme("<<b>>"), MustScheme("<<a>>")) <= 0 {
		t.Error("lexicographic order broken")
	}
}

func TestSchemaAddRemoveRename(t *testing.T) {
	s := NewSchema("S")
	obj := NewObject(MustScheme("<<t>>"), Nodal, "sql", "table")
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(obj.WithScheme(obj.Scheme)); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if s.Len() != 1 || !s.Has(MustScheme("<<t>>")) {
		t.Fatal("Add failed")
	}
	if err := s.Rename(MustScheme("<<t>>"), MustScheme("<<u>>")); err != nil {
		t.Fatal(err)
	}
	if s.Has(MustScheme("<<t>>")) || !s.Has(MustScheme("<<u>>")) {
		t.Error("Rename failed")
	}
	if err := s.Rename(MustScheme("<<missing>>"), MustScheme("<<x>>")); err == nil {
		t.Error("Rename of missing object succeeded")
	}
	if err := s.Remove(MustScheme("<<u>>")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(MustScheme("<<u>>")); err == nil {
		t.Error("double Remove succeeded")
	}
	if s.Len() != 0 {
		t.Error("Remove failed")
	}
}

func TestSchemaRenameClash(t *testing.T) {
	s := NewSchema("S")
	s.MustAdd(NewObject(MustScheme("<<a>>"), Nodal, "", ""))
	s.MustAdd(NewObject(MustScheme("<<b>>"), Nodal, "", ""))
	if err := s.Rename(MustScheme("<<a>>"), MustScheme("<<b>>")); err == nil {
		t.Error("rename onto existing object succeeded")
	}
}

func TestSchemaResolve(t *testing.T) {
	s := NewSchema("S")
	s.MustAdd(NewObject(MustScheme("<<sql, table, protein>>"), Nodal, "sql", "table"))
	s.MustAdd(NewObject(MustScheme("<<sql, column, protein, acc>>"), Link, "sql", "column"))

	o, err := s.Resolve([]string{"protein"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Scheme.Arity() != 3 {
		t.Errorf("resolved %s", o.Scheme)
	}
	o, err = s.Resolve([]string{"protein", "acc"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != Link {
		t.Errorf("resolved wrong object %s", o.Scheme)
	}
	if _, err := s.Resolve([]string{"nope"}); err == nil {
		t.Error("resolving missing object succeeded")
	}
	// Ambiguity.
	s.MustAdd(NewObject(MustScheme("<<xml, element, protein>>"), Nodal, "xml", "element"))
	if _, err := s.Resolve([]string{"protein"}); err == nil {
		t.Error("ambiguous resolution succeeded")
	}
	// Exact match beats ambiguity.
	if _, err := s.Resolve([]string{"sql", "table", "protein"}); err != nil {
		t.Errorf("exact resolution failed: %v", err)
	}
}

// TestSchemaCloneIndependence: a clone is added to, removed from and
// renamed in apart from its original, and shares its objects.
func TestSchemaCloneIndependence(t *testing.T) {
	s := NewSchema("S")
	s.MustAdd(NewObject(MustScheme("<<a>>"), Nodal, "", ""))
	s.MustAdd(NewObject(MustScheme("<<z>>"), Nodal, "", ""))
	c := s.Clone("C")
	if a, _ := s.Object(MustScheme("<<a>>")); c.objects["a"] != a {
		t.Error("clone copied an object")
	}
	c.MustAdd(NewObject(MustScheme("<<b>>"), Nodal, "", ""))
	if err := c.Remove(MustScheme("<<z>>")); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(MustScheme("<<a>>"), MustScheme("<<y>>")); err != nil {
		t.Fatal(err)
	}
	if got := s.Schemes(); len(got) != 2 || got[0].Key() != "a" || got[1].Key() != "z" {
		t.Errorf("clone not independent: the original now holds %v", got)
	}
	if a, _ := s.Object(MustScheme("<<a>>")); a.Scheme.Key() != "a" {
		t.Errorf("renaming in the clone renamed the original's object to %s", a.Scheme)
	}
	if c.Name() != "C" || c.Len() != 2 {
		t.Error("clone name or size wrong")
	}
}

// TestVersionIsNeverChanged: a version refuses every change, and its
// clone is a schema of its own that takes them; a version that would
// hold one key twice, or whose parts disagree with the change it claims,
// is refused.
func TestVersionIsNeverChanged(t *testing.T) {
	a, b := NewObject(MustScheme("<<a>>"), Nodal, "", ""), NewObject(MustScheme("<<b>>"), Nodal, "", "")
	v1, err := NewVersion("V1", nil, [][]*Object{{a}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewVersion("V2", v1, [][]*Object{{a}, {b}}, []*Object{b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Add(NewObject(MustScheme("<<c>>"), Nodal, "", "")); err == nil {
		t.Error("a version took an object")
	}
	if err := v2.Remove(MustScheme("<<a>>")); err == nil {
		t.Error("a version lost an object")
	}
	if err := v2.Rename(MustScheme("<<a>>"), MustScheme("<<y>>")); err == nil {
		t.Error("a version renamed an object")
	}
	if v1.Has(MustScheme("<<b>>")) || v1.Len() != 1 || v2.Len() != 2 {
		t.Errorf("V1 holds %v and V2 %v", v1.Schemes(), v2.Schemes())
	}
	c := v2.Clone("C")
	if err := c.Remove(MustScheme("<<a>>")); err != nil || !v2.Has(MustScheme("<<a>>")) {
		t.Errorf("a version's clone is not its own (%v)", err)
	}
	if _, err := NewVersion("V3", v2, [][]*Object{{a}, {b, a}}, []*Object{a}, nil); err == nil {
		t.Error("a version holds <<a>> twice")
	}
	if _, err := NewVersion("V3", v2, [][]*Object{{a}}, nil, nil); err == nil {
		t.Error("a version lost <<b>> without removing it")
	}
}

// TestResolveExactAllocatesNothing: an exact reference is resolved
// without an allocation, in a schema and in a version over a base, its
// key longer than any the runtime lays out on the stack.
func TestResolveExactAllocatesNothing(t *testing.T) {
	parts := []string{"a_source_prefixed_table_of_some_length", "and_one_of_its_columns"}
	o := NewObject(NewScheme(parts...), Link, "sql", "column")
	s := NewSchema("S")
	s.MustAdd(o)
	v, err := NewVersion("V", s, [][]*Object{{o}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []*Schema{s, v} {
		if allocs := testing.AllocsPerRun(100, func() {
			if got, err := sch.Resolve(parts); err != nil || got != o {
				t.Fatalf("%s resolves %v to %v (%v)", sch.Name(), parts, got, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: an exact resolution allocates %v times", sch.Name(), allocs)
		}
	}
}

func TestIdenticalAndDiff(t *testing.T) {
	a := NewSchema("A")
	b := NewSchema("B")
	a.MustAdd(NewObject(MustScheme("<<x>>"), Nodal, "sql", "table"))
	b.MustAdd(NewObject(MustScheme("<<x>>"), Nodal, "sql", "table"))
	if !Identical(a, b) {
		t.Error("identical schemas reported different")
	}
	// Same scheme, different construct: not identical.
	c := NewSchema("C")
	c.MustAdd(NewObject(MustScheme("<<x>>"), Nodal, "xml", "element"))
	if Identical(a, c) {
		t.Error("different constructs reported identical")
	}
	b.MustAdd(NewObject(MustScheme("<<y>>"), Nodal, "", ""))
	onlyA, onlyB := Diff(a, b)
	if len(onlyA) != 0 || len(onlyB) != 1 || !onlyB[0].Equal(MustScheme("<<y>>")) {
		t.Errorf("Diff = %v %v", onlyA, onlyB)
	}
}

func TestObjectKindRoundTrip(t *testing.T) {
	for _, k := range []ObjectKind{Nodal, Link, ConstraintObj} {
		rt, err := ParseObjectKind(k.String())
		if err != nil || rt != k {
			t.Errorf("kind %v round trip failed: %v %v", k, rt, err)
		}
	}
	if _, err := ParseObjectKind("bogus"); err == nil {
		t.Error("ParseObjectKind(bogus) succeeded")
	}
}
