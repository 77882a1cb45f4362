package transform

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

func sc(s string) hdm.Scheme { return hdm.MustScheme(s) }

// ob is a nodal object without metadata named by the scheme s.
func ob(s string) *hdm.Object { return hdm.NewObject(sc(s), hdm.Nodal, "", "") }

// objectOf is the object of s named by the scheme name.
func objectOf(s *hdm.Schema, name string) *hdm.Object {
	o, ok := s.Object(sc(name))
	if !ok {
		panic("no object " + name)
	}
	return o
}

func simpleSchema() *hdm.Schema {
	s := hdm.NewSchema("S")
	s.MustAdd(hdm.NewObject(sc("<<t>>"), hdm.Nodal, "sql", "table"))
	s.MustAdd(hdm.NewObject(sc("<<t, a>>"), hdm.Link, "sql", "column"))
	s.MustAdd(hdm.NewObject(sc("<<t, b>>"), hdm.Link, "sql", "column"))
	return s
}

func TestReverseRules(t *testing.T) {
	q := iql.MustParse("[k | k <- <<t>>]")
	cases := []struct {
		in   Transformation
		want Kind
	}{
		{NewAdd(hdm.NewObject(sc("<<x>>"), hdm.Nodal, "", ""), q), Delete},
		{NewDelete(ob("<<x>>"), q), Add},
		{NewExtend(hdm.NewObject(sc("<<x>>"), hdm.Nodal, "", ""), &iql.Lit{Val: iql.Void()}, &iql.Lit{Val: iql.Any()}), Contract},
		{NewContract(ob("<<x>>"), nil, nil), Extend},
	}
	for _, c := range cases {
		got := c.in.Reverse()
		if got.Kind != c.want {
			t.Errorf("%s reversed to %s, want %s", c.in.Kind, got.Kind, c.want)
		}
		// Arguments preserved.
		if got.Object != c.in.Object {
			t.Errorf("%s reversal changed object", c.in.Kind)
		}
	}
	// rename and id swap arguments.
	r := NewRename(ob("<<a>>"), ob("<<b>>")).Reverse()
	if !r.Object.Scheme.Equal(sc("<<b>>")) || !r.To.Scheme.Equal(sc("<<a>>")) {
		t.Errorf("rename reversal = %s", r)
	}
	id := NewID(ob("<<a>>"), ob("<<b>>")).Reverse()
	if !id.Object.Scheme.Equal(sc("<<b>>")) || !id.To.Scheme.Equal(sc("<<a>>")) {
		t.Errorf("id reversal = %s", id)
	}
}

// genStep generates random well-formed transformations for property
// tests.
type genStep struct{ t Transformation }

func (genStep) Generate(r *rand.Rand, size int) reflect.Value {
	names := []string{"<<a>>", "<<b>>", "<<c, d>>", "<<e, f>>"}
	obj := ob(names[r.Intn(len(names))])
	to := ob(names[r.Intn(len(names))])
	q := iql.MustParse("[k | k <- <<src>>]")
	var tr Transformation
	switch r.Intn(6) {
	case 0:
		tr = NewAdd(obj, q)
	case 1:
		tr = NewDelete(obj, q)
	case 2:
		tr = NewExtend(obj, &iql.Lit{Val: iql.Void()}, &iql.Lit{Val: iql.Any()})
	case 3:
		tr = NewContract(obj, nil, nil)
	case 4:
		tr = NewRename(obj, to)
	default:
		tr = NewID(obj, to)
	}
	if r.Intn(2) == 0 {
		tr = tr.WithAuto()
	}
	return reflect.ValueOf(genStep{t: tr})
}

func TestReverseIsInvolutionProperty(t *testing.T) {
	f := func(g genStep) bool {
		rr := g.t.Reverse().Reverse()
		return rr.String() == g.t.String() && rr.Auto == g.t.Auto
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPathwayReverseIsInvolutionProperty(t *testing.T) {
	f := func(steps []genStep) bool {
		p := NewPathway("A", "B")
		for _, s := range steps {
			p.Append(s.t)
		}
		rr := p.Reverse().Reverse()
		if rr.Source != p.Source || rr.Target != p.Target || rr.Len() != p.Len() {
			return false
		}
		for i := range p.Steps {
			if rr.Steps[i].String() != p.Steps[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestApplyAddDeleteRoundTrip(t *testing.T) {
	s := simpleSchema()
	add := NewAdd(hdm.NewObject(sc("<<u>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<t>>]"))
	if err := Apply(s, add, true); err != nil {
		t.Fatal(err)
	}
	if !s.Has(sc("<<u>>")) {
		t.Fatal("add did not create object")
	}
	// Applying the reverse (a delete) restores the schema.
	if err := Apply(s, add.Reverse(), true); err != nil {
		t.Fatal(err)
	}
	if s.Has(sc("<<u>>")) {
		t.Fatal("delete did not remove object")
	}
}

func TestApplyPathwayThenReverseRestoresSchema(t *testing.T) {
	src := simpleSchema()
	p := NewPathway("S", "T",
		NewAdd(hdm.NewObject(sc("<<u>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<t>>]")),
		NewAdd(hdm.NewObject(sc("<<u, a>>"), hdm.Link, "", ""), iql.MustParse("[{k, x} | {k, x} <- <<t, a>>]")),
		NewDelete(objectOf(src, "<<t, a>>"), iql.MustParse("[{k, x} | {k, x} <- <<u, a>>]")),
		NewContract(objectOf(src, "<<t, b>>"), nil, nil),
	)
	mid, err := ApplyPathway(src, p, true)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ApplyPathway(mid, p.Reverse(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !hdm.Identical(src, back) {
		a, b := hdm.Diff(src, back)
		t.Fatalf("round trip lost objects: src-only %v, back-only %v", a, b)
	}
}

func TestApplyErrors(t *testing.T) {
	s := simpleSchema()
	// Add of existing object.
	if err := Apply(s, NewAdd(hdm.NewObject(sc("<<t>>"), hdm.Nodal, "", ""), iql.MustParse("<<t>>")), false); err == nil {
		t.Error("add of existing object succeeded")
	}
	// Delete of missing object.
	if err := Apply(s, NewDelete(ob("<<zz>>"), iql.MustParse("<<t>>")), false); err == nil {
		t.Error("delete of missing object succeeded")
	}
	// Strict add referencing unknown object.
	if err := Apply(s, NewAdd(hdm.NewObject(sc("<<v>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<nope>>]")), true); err == nil {
		t.Error("strict add with dangling reference succeeded")
	}
	// Rename clash.
	if err := Apply(s, NewRename(ob("<<t, a>>"), ob("<<t, b>>")), false); err == nil {
		t.Error("rename onto existing object succeeded")
	}
	// Extend must carry a Range.
	bad := Transformation{Kind: Extend, Object: ob("<<w>>"), Query: iql.MustParse("[1]")}
	if err := Apply(s, bad, false); err == nil {
		t.Error("extend without Range succeeded")
	}
}

func TestNonTrivial(t *testing.T) {
	if NewContract(ob("<<x>>"), nil, nil).NonTrivial() {
		t.Error("Range Void Any contract counted non-trivial")
	}
	if !NewAdd(hdm.NewObject(sc("<<x>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<t>>]")).NonTrivial() {
		t.Error("add with real query counted trivial")
	}
	if NewRename(ob("<<a>>"), ob("<<b>>")).NonTrivial() {
		t.Error("rename counted non-trivial")
	}
	ext := NewExtend(hdm.NewObject(sc("<<x>>"), hdm.Nodal, "", ""), iql.MustParse("[1]"), &iql.Lit{Val: iql.Any()})
	if !ext.NonTrivial() {
		t.Error("extend with informative lower bound counted trivial")
	}
}

func TestPathwayCounts(t *testing.T) {
	p := NewPathway("A", "B",
		NewAdd(hdm.NewObject(sc("<<x>>"), hdm.Nodal, "", ""), iql.MustParse("<<t>>")),
		NewAdd(hdm.NewObject(sc("<<y>>"), hdm.Nodal, "", ""), iql.MustParse("<<t>>")).WithAuto(),
		NewContract(ob("<<z>>"), nil, nil).WithAuto(),
	)
	if p.ManualCount() != 1 {
		t.Errorf("ManualCount = %d", p.ManualCount())
	}
	if p.NonTrivialCount() != 2 {
		t.Errorf("NonTrivialCount = %d", p.NonTrivialCount())
	}
	if p.CountByKind()[Add] != 2 || p.CountByKind()[Contract] != 1 {
		t.Errorf("CountByKind = %v", p.CountByKind())
	}
}

func TestIdentSteps(t *testing.T) {
	a := simpleSchema()
	b := a.Clone("S2")
	steps, err := IdentSteps(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != a.Len() {
		t.Errorf("IdentSteps produced %d steps, want %d", len(steps), a.Len())
	}
	for _, s := range steps {
		if s.Kind != ID || !s.Auto {
			t.Errorf("unexpected step %s", s)
		}
	}
	b.MustAdd(hdm.NewObject(sc("<<extra>>"), hdm.Nodal, "", ""))
	if _, err := IdentSteps(a, b); err == nil {
		t.Error("ident between non-identical schemas succeeded")
	}
}

func TestIntersectionFormValidation(t *testing.T) {
	q := iql.MustParse("[k | k <- <<t>>]")
	good := NewPathway("S", "I",
		NewAdd(hdm.NewObject(sc("<<u>>"), hdm.Nodal, "", ""), q),
		NewExtend(hdm.NewObject(sc("<<v>>"), hdm.Nodal, "", ""), &iql.Lit{Val: iql.Void()}, &iql.Lit{Val: iql.Any()}),
		NewDelete(ob("<<t>>"), q),
		NewContract(ob("<<t, a>>"), nil, nil),
		NewID(ob("<<u>>"), ob("<<u>>")),
	)
	if err := good.IsIntersectionForm(); err != nil {
		t.Errorf("canonical pathway rejected: %v", err)
	}
	// Add after contract violates the form.
	bad := NewPathway("S", "I",
		NewContract(ob("<<t, a>>"), nil, nil),
		NewAdd(hdm.NewObject(sc("<<u>>"), hdm.Nodal, "", ""), q),
	)
	if err := bad.IsIntersectionForm(); err == nil {
		t.Error("add after contract accepted")
	}
	// Rename never allowed.
	bad2 := NewPathway("S", "I", NewRename(ob("<<a>>"), ob("<<b>>")))
	if err := bad2.IsIntersectionForm(); err == nil {
		t.Error("rename accepted in intersection pathway")
	}
	// Informative extend not allowed (only Range Void Any placeholders).
	bad3 := NewPathway("S", "I",
		NewExtend(hdm.NewObject(sc("<<v>>"), hdm.Nodal, "", ""), iql.MustParse("[1]"), &iql.Lit{Val: iql.Any()}))
	if err := bad3.IsIntersectionForm(); err == nil {
		t.Error("informative extend accepted")
	}
}

func TestMinusPathway(t *testing.T) {
	q := iql.MustParse("[k | k <- <<t>>]")
	esToI := NewPathway("ES", "I",
		NewAdd(hdm.NewObject(sc("<<u>>"), hdm.Nodal, "", ""), q),
		NewDelete(ob("<<t>>"), q),
		NewDelete(ob("<<t, a>>"), q),
		NewContract(ob("<<t, b>>"), nil, nil),
	)
	mp, err := MinusPathway(esToI, "ES-minus-I")
	if err != nil {
		t.Fatal(err)
	}
	// The minus pathway contracts exactly the deleted objects, so what
	// remains is the contracted remainder — the paper's operational
	// rule for the − operator.
	if mp.Len() != 2 {
		t.Fatalf("minus pathway has %d steps: %s", mp.Len(), mp)
	}
	for _, s := range mp.Steps {
		if s.Kind != Contract {
			t.Errorf("unexpected step %s", s)
		}
	}
	// Applying it to the source leaves only <<t, b>>.
	src := simpleSchema()
	out, err := ApplyPathway(src, mp, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Has(sc("<<t, b>>")) {
		t.Errorf("ES − I = %v", out.Schemes())
	}
}

func TestTransformationString(t *testing.T) {
	tr := NewAdd(hdm.NewObject(sc("<<UProtein>>"), hdm.Nodal, "", ""), iql.MustParse("[{'PEDRO', k} | k <- <<protein>>]"))
	s := tr.String()
	if !strings.HasPrefix(s, "add <<UProtein>> [") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(NewContract(ob("<<x>>"), nil, nil).WithAuto().String(), "-- auto") {
		t.Error("auto marker missing")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Add, Delete, Extend, Contract, Rename, ID} {
		rt, err := ParseKind(k.String())
		if err != nil || rt != k {
			t.Errorf("kind %v round trip failed", k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded")
	}
}

// TestApplyWritesNoObject: applying a pathway of every kind of step to
// a schema — whose clone shares its objects — changes no object of the
// source: a rename makes a new object.
func TestApplyWritesNoObject(t *testing.T) {
	src := simpleSchema()
	was := make(map[*hdm.Object]hdm.Object)
	for _, o := range src.All() {
		was[o] = *o
	}
	q := iql.MustParse("[k | k <- <<t>>]")
	pw := NewPathway("S", "T",
		NewAdd(hdm.NewObject(sc("<<u>>"), hdm.Nodal, "sql", "table"), q),
		NewExtend(hdm.NewObject(sc("<<v>>"), hdm.Nodal, "", ""), nil, nil),
		NewRename(objectOf(src, "<<t, a>>"), objectOf(src, "<<t, a>>").WithScheme(sc("<<t, c>>"))),
		NewID(objectOf(src, "<<t>>"), objectOf(src, "<<t>>")),
		NewContract(objectOf(src, "<<t, b>>"), nil, nil),
		NewDelete(ob("<<u>>"), q),
	)
	out, err := ApplyPathway(src, pw, false)
	if err != nil {
		t.Fatal(err)
	}
	for o, v := range was {
		if !reflect.DeepEqual(*o, v) {
			t.Errorf("applying the pathway changed %s to %+v", v.Scheme, *o)
		}
	}
	if c, ok := out.Object(sc("<<t, c>>")); !ok || c.Kind != hdm.Link || c.Construct != "column" {
		t.Errorf("the renamed object is %+v", c)
	}
}

// TestStepsPointAtTheirObjects pins what a step holds: a pointer to its
// object, not a copy of it, in 40 bytes. Applying a contract and then
// its reverse puts the source's own object back without allocating, and
// a pathway applied and then reversed leaves every object of the source
// as the very object it was.
func TestStepsPointAtTheirObjects(t *testing.T) {
	if n := unsafe.Sizeof(Transformation{}); n != 40 {
		t.Errorf("a transformation is %d bytes, want 40", n)
	}
	src := simpleSchema()
	s := src.Clone("T")
	contract := NewContract(objectOf(src, "<<t, b>>"), nil, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Apply(s, contract, false); err != nil {
			t.Fatal(err)
		}
		if err := Apply(s, contract.Reverse(), false); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a contract and its reverse allocate %v times, want 0", allocs)
	}
	q := iql.MustParse("[k | k <- <<t>>]")
	pw := NewPathway("S", "T",
		NewAdd(ob("<<u>>"), q),
		NewDelete(objectOf(src, "<<t, a>>"), q),
		NewContract(objectOf(src, "<<t, b>>"), nil, nil),
	)
	mid, err := ApplyPathway(src, pw, false)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ApplyPathway(mid, pw.Reverse(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range src.All() {
		if b, ok := back.Object(o.Scheme); !ok || b != o {
			t.Errorf("the reversed pathway recreates %s as %+v, not as the source's object", o.Scheme, b)
		}
	}
}
