package classical

import (
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

func twoSources(t *testing.T) (wrapper.Wrapper, wrapper.Wrapper) {
	t.Helper()
	a := rel.NewDB("A")
	ta := a.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "isbn", Type: rel.String},
	}, "id")
	ta.MustInsert(int64(1), "978-1")
	ta.MustInsert(int64(2), "978-2")
	b := rel.NewDB("B")
	tb := b.MustCreateTable("items", []rel.Column{
		{Name: "sku", Type: rel.String}, {Name: "barcode", Type: rel.String},
	}, "sku")
	tb.MustInsert("S1", "978-2")
	wa, err := wrapper.NewRelational("A", a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wrapper.NewRelational("B", b)
	if err != nil {
		t.Fatal(err)
	}
	return wa, wb
}

func stageGS1() Stage {
	return Stage{Name: "GS1", Concepts: []Concept{
		{Object: "<<books>>", Identity: "A", Mapped: []MappedFrom{
			{Source: "B", Query: "[k | k <- <<items>>]", Counted: true},
		}},
		{Object: "<<books, isbn>>", Identity: "A", Mapped: []MappedFrom{
			{Source: "B", Query: "[{k, x} | {k, x} <- <<items, barcode>>]", Counted: true},
		}},
	}}
}

func TestNoServicesBeforeMerge(t *testing.T) {
	wa, wb := twoSources(t)
	b, err := New(wa, wb)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddStage(stageGS1()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query("count(<<books>>)"); err == nil {
		t.Fatal("query before Merge succeeded")
	}
}

func TestMergeAndQuery(t *testing.T) {
	wa, wb := twoSources(t)
	b, err := New(wa, wb)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddStage(stageGS1()); err != nil {
		t.Fatal(err)
	}
	g, err := b.Merge("GS")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("global objects = %d", g.Len())
	}
	// Bag union across identity + mapped derivations: 2 + 1 books.
	v, err := b.Query("count(<<books>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Int(3)) {
		t.Errorf("count = %s", v)
	}
	v, err = b.Query("[k | {k, x} <- <<books, isbn>>; x = '978-2']")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("isbn 978-2 = %s", v)
	}
	// Unknown object fails.
	if _, err := b.Query("count(<<items>>)"); err == nil {
		t.Error("query over source-local object succeeded on global schema")
	}
	// Double merge fails.
	if _, err := b.Merge("GS2"); err == nil {
		t.Error("double Merge succeeded")
	}
	// Stage after merge fails.
	if err := b.AddStage(Stage{Name: "late"}); err == nil {
		t.Error("stage after Merge accepted")
	}
}

func TestCounting(t *testing.T) {
	wa, wb := twoSources(t)
	b, _ := New(wa, wb)
	st := stageGS1()
	// Add an uncounted derivation.
	st.Concepts = append(st.Concepts, Concept{
		Object: "<<books, source_note>>",
		Mapped: []MappedFrom{{Source: "B", Query: "[{k, k} | k <- <<items>>]", Counted: false}},
	})
	if err := b.AddStage(st); err != nil {
		t.Fatal(err)
	}
	if got := b.NonTrivialCount("GS1", "B"); got != 2 {
		t.Errorf("NonTrivialCount = %d, want 2", got)
	}
	if got := b.NonTrivialCount("GS1", "A"); got != 0 {
		t.Errorf("identity source counted: %d", got)
	}
	if b.TotalNonTrivial() != 2 {
		t.Errorf("total = %d", b.TotalNonTrivial())
	}
	lines := b.EffortBreakdown()
	if len(lines) != 1 || !strings.Contains(lines[0], "GS1 from B: 2") {
		t.Errorf("breakdown = %v", lines)
	}
}

func TestStageValidation(t *testing.T) {
	wa, wb := twoSources(t)
	b, _ := New(wa, wb)
	if err := b.AddStage(Stage{Name: ""}); err == nil {
		t.Error("unnamed stage accepted")
	}
	if err := b.AddStage(Stage{Name: "S", Concepts: []Concept{{Object: "<<>>"}}}); err == nil {
		t.Error("bad concept scheme accepted")
	}
	if err := b.AddStage(Stage{Name: "S2", Concepts: []Concept{
		{Object: "<<x>>", Identity: "Nope"},
	}}); err == nil {
		t.Error("unknown identity source accepted")
	}
	if err := b.AddStage(Stage{Name: "S3", Concepts: []Concept{
		{Object: "<<x>>", Mapped: []MappedFrom{{Source: "B", Query: "[bad"}}},
	}}); err == nil {
		t.Error("bad derivation query accepted")
	}
	if err := b.AddStage(stageGS1()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddStage(stageGS1()); err == nil {
		t.Error("duplicate stage accepted")
	}
}

func TestMultiStage(t *testing.T) {
	wa, wb := twoSources(t)
	b, _ := New(wa, wb)
	if err := b.AddStage(stageGS1()); err != nil {
		t.Fatal(err)
	}
	// GS2 adds a B-only concept.
	if err := b.AddStage(Stage{Name: "GS2", Concepts: []Concept{
		{Object: "<<items, barcode>>", Identity: "B"},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Merge("GS"); err != nil {
		t.Fatal(err)
	}
	if len(b.stages) != 2 || b.stages[1].Name != "GS2" {
		t.Errorf("stages = %v", b.stages)
	}
	v, err := b.Query("count(<<items, barcode>>)")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Int(1)) {
		t.Errorf("GS2 concept count = %s", v)
	}
}

func TestMergeRequiresStages(t *testing.T) {
	wa, wb := twoSources(t)
	b, _ := New(wa, wb)
	if _, err := b.Merge("GS"); err == nil {
		t.Error("Merge with no stages succeeded")
	}
}
