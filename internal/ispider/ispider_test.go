package ispider

import (
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/classical"
	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
)

func TestDatabasesBuildAndValidate(t *testing.T) {
	cfg := DefaultConfig()
	for _, db := range []interface {
		Validate() error
		Name() string
	}{BuildPedro(cfg), BuildGpmDB(cfg), BuildPepSeeker(cfg)} {
		if err := db.Validate(); err != nil {
			t.Errorf("%s: foreign keys invalid: %v", db.Name(), err)
		}
	}
}

func TestSchemaObjectCounts(t *testing.T) {
	pedro, gpmdb, pepseeker, err := Wrappers(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := pedro.Schema().Len(); got != 53 {
		t.Errorf("Pedro schema has %d objects, want 53", got)
	}
	if got := gpmdb.Schema().Len(); got != 78 {
		t.Errorf("gpmDB schema has %d objects, want 78", got)
	}
	if got := pepseeker.Schema().Len(); got != 96 {
		t.Errorf("PepSeeker schema has %d objects, want 96", got)
	}
}

func TestDataIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := BuildPedro(cfg)
	b := BuildPedro(cfg)
	ta, _ := a.Table("protein")
	tb, _ := b.Table("protein")
	if ta.Len() != tb.Len() {
		t.Fatalf("non-deterministic row counts: %d vs %d", ta.Len(), tb.Len())
	}
	va, _ := ta.Value(int64(1000), "description")
	vb, _ := tb.Value(int64(1000), "description")
	if va != vb {
		t.Errorf("non-deterministic data: %v vs %v", va, vb)
	}
}

func TestSharedWorkloadConstantsPresent(t *testing.T) {
	cfg := DefaultConfig()
	pedro := BuildPedro(cfg)
	gpm := BuildGpmDB(cfg)
	pep := BuildPepSeeker(cfg)

	find := func(rows [][]any, col int, want any) bool {
		for _, r := range rows {
			if r[col] == want {
				return true
			}
		}
		return false
	}
	pt, _ := pedro.Table("protein")
	if !find(pt.Rows(), 1, SharedAccession) {
		t.Error("Pedro missing shared accession")
	}
	gt, _ := gpm.Table("proseq")
	if !find(gt.Rows(), 1, SharedAccession) {
		t.Error("gpmDB missing shared accession")
	}
	pepProtein, _ := pep.Table("protein")
	if _, ok := pepProtein.Lookup(SharedAccession); !ok {
		t.Error("PepSeeker missing shared accession")
	}
	ph, _ := pedro.Table("peptidehit")
	if !find(ph.Rows(), 1, SharedPeptide) {
		t.Error("Pedro missing shared peptide")
	}
	gp, _ := gpm.Table("peptide")
	if !find(gp.Rows(), 2, SharedPeptide) {
		t.Error("gpmDB missing shared peptide")
	}
	pp, _ := pep.Table("peptidehit")
	if !find(pp.Rows(), 2, SharedPeptide) {
		t.Error("PepSeeker missing shared peptide")
	}
}

func TestIntersectionPlanManualCounts(t *testing.T) {
	// The paper's per-iteration manual transformation counts:
	// 6 + 1 + 1 + 15 + 3 = 26.
	want := []int{6, 1, 1, 15, 3}
	plan := IntersectionPlan()
	if len(plan) != len(want) {
		t.Fatalf("plan has %d steps, want %d", len(plan), len(want))
	}
	for i, step := range plan {
		if step.ManualExpected != want[i] {
			t.Errorf("step %s expects %d, want %d", step.Name, step.ManualExpected, want[i])
		}
	}
	if PlanManualTotal() != 26 {
		t.Errorf("plan total = %d, want 26", PlanManualTotal())
	}
}

func TestRunIntersectionMatchesPaperEffort(t *testing.T) {
	ig, err := RunIntersection(DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	rep := ig.Report()
	if got := rep.TotalManual(); got != 26 {
		t.Fatalf("measured manual transformations = %d, paper says 26\n%s", got, rep)
	}
	// Per-iteration counts match 6, 1, 1, 15, 3.
	var manuals []int
	for _, it := range rep.Iterations {
		if it.Kind == "intersection" || it.Kind == "refinement" {
			manuals = append(manuals, it.Counts.Manual())
		}
	}
	want := []int{6, 1, 1, 15, 3}
	if len(manuals) != len(want) {
		t.Fatalf("iterations = %v", manuals)
	}
	for i := range want {
		if manuals[i] != want[i] {
			t.Errorf("iteration %d manual = %d, want %d", i+1, manuals[i], want[i])
		}
	}
}

func TestTable1AllQueriesAnswerableWithResults(t *testing.T) {
	ig, err := RunIntersection(DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Table1Queries() {
		res, err := ig.Query(q.IQL)
		if err != nil {
			t.Errorf("%s failed: %v", q.ID, err)
			continue
		}
		n := res.Value.Len()
		if q.ID == "Q4" {
			// Q4 returns a tuple of two bags.
			if res.Value.Len() != 2 {
				t.Errorf("Q4 returned %s, want a 2-tuple", res.Value)
				continue
			}
			if res.Value.Items()[0].Len() == 0 || res.Value.Items()[1].Len() == 0 {
				t.Errorf("Q4 sub-results empty: %s", res.Value)
			}
			continue
		}
		if n <= 0 {
			t.Errorf("%s returned no results", q.ID)
		}
	}
}

func TestQ1FindsAllThreeSources(t *testing.T) {
	ig, err := RunIntersection(DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := QueryByID("Q1")
	res, err := ig.Query(q.IQL)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, item := range res.Value.Items() {
		if item.Kind == iql.KindTuple && len(item.Items()) == 2 {
			seen[item.Items()[0].S()] = true
		}
	}
	for _, src := range []string{"PEDRO", "gpmDB", "pepSeeker"} {
		if !seen[src] {
			t.Errorf("Q1 missing identification from %s (got %v)", src, res.Value)
		}
	}
}

func TestPayAsYouGoAnswerability(t *testing.T) {
	// Queries become answerable exactly at the iteration the paper
	// assigns them to: replay the plan step by step and probe each
	// query before and after.
	pedro, gpmdb, pepseeker, err := Wrappers(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ig, err := core.New(pedro, gpmdb, pepseeker)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	probe := func(stage string) {
		for _, q := range Table1Queries() {
			_, err := ig.Query(q.IQL)
			want := AnswerableAfter(q, stage)
			if want && err != nil {
				t.Errorf("after %s: %s should be answerable: %v", stage, q.ID, err)
			}
			if !want && err == nil {
				t.Errorf("after %s: %s should NOT yet be answerable", stage, q.ID)
			}
		}
	}
	probe("F")
	for _, step := range IntersectionPlan() {
		if err := ig.Apply(step.Step()); err != nil {
			t.Fatalf("step %s: %v", step.Name, err)
		}
		probe(step.Name)
	}
}

func TestClassicalMatchesPaperEffort(t *testing.T) {
	b, err := RunClassical(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for pair, want := range ClassicalExpected() {
		parts := strings.SplitN(pair, "/", 2)
		if got := b.NonTrivialCount(parts[0], parts[1]); got != want {
			t.Errorf("%s = %d, want %d", pair, got, want)
		}
	}
	if got := b.TotalNonTrivial(); got != 95 {
		t.Errorf("classical total = %d, paper says 95", got)
	}
}

func TestClassicalNoServicesBeforeMerge(t *testing.T) {
	pedro, gpmdb, pepseeker, err := Wrappers(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := classical.New(pedro, gpmdb, pepseeker)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := ClassicalStages(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stages {
		if err := b.AddStage(s); err != nil {
			t.Fatal(err)
		}
	}
	// All stages defined but not merged: still no data services.
	if _, err := b.Query("count(<<protein>>)"); err == nil {
		t.Fatal("classical query before Merge succeeded; up-front cost not modelled")
	}
}

func TestClassicalAnswersSameQueriesAfterMerge(t *testing.T) {
	b, err := RunClassical(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent of Q1 over the classical global schema (Pedro-shaped):
	v, err := b.Query("[k | {k, x} <- <<protein, accession_num>>; x = '" + SharedAccession + "']")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() < 3 {
		t.Errorf("classical Q1 = %s, want at least one hit per source", v)
	}
	// GS2-stage concept: ion information from both gpmDB and PepSeeker.
	v, err = b.Query("count(<<ion>>)")
	if err != nil {
		t.Fatal(err)
	}
	if v.I() <= 0 {
		t.Errorf("classical ion count = %s", v)
	}
	// GS3-stage concept, PepSeeker only.
	v, err = b.Query("count(<<masses>>)")
	if err != nil {
		t.Fatal(err)
	}
	if v.I() <= 0 {
		t.Errorf("classical masses count = %s", v)
	}
}

func TestEffortComparisonShape(t *testing.T) {
	// The paper's headline: 26 versus 95, i.e. the intersection
	// methodology needs well under half the manual steps, and answers
	// query 1 after just 6 of them while the classical integration
	// answers nothing before all 95.
	ig, err := RunIntersection(DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := RunClassical(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inter := ig.Report().TotalManual()
	class := cb.TotalNonTrivial()
	if inter != 26 || class != 95 {
		t.Fatalf("effort = %d vs %d, want 26 vs 95", inter, class)
	}
	if !(inter < class) {
		t.Error("intersection approach should win")
	}
	cum := ig.Report().CumulativeManual()
	if cum[len(cum)-1] != 26 {
		t.Errorf("cumulative = %v", cum)
	}
}
