// Command ispider reproduces the paper's case study (EDBT 2014, §3):
// the query-driven intersection-schema integration of the Pedro, gpmDB
// and PepSeeker proteomics databases, compared with the classical
// up-front iSpider integration.
//
// Experiments:
//
//	-experiment effort   effort comparison (E2): 26 vs 95 transformations
//	-experiment table1   run the 7 priority queries (E1, Table 1)
//	-experiment curve    pay-as-you-go curve (E3)
//	-experiment reverse  answer source queries from the global schema (BAV)
//	-experiment all      everything (default)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/render"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "effort | table1 | curve | reverse | all")
		seed       = flag.Int64("seed", 1, "data generator seed")
		proteins   = flag.Int("proteins", 30, "proteins per source")
		searches   = flag.Int("searches", 3, "search runs per source")
		hits       = flag.Int("hits", 8, "protein hits per search")
		peptides   = flag.Int("peptides", 2, "peptide hits per protein hit")
		drop       = flag.Bool("drop", false, "drop redundant objects from rebuilt global schemas")
	)
	flag.Parse()

	cfg := ispider.Config{
		Seed: *seed, Proteins: *proteins, Searches: *searches,
		HitsPerSearch: *hits, PeptidesPerHit: *peptides,
	}
	run := func(name string, f func(ispider.Config, bool) error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(cfg, *drop); err != nil {
			fmt.Fprintf(os.Stderr, "ispider: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("effort", effort)
	run("table1", table1)
	run("curve", curve)
	run("reverse", reverse)
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// effort reproduces E2: the paper's 26-vs-95 comparison.
func effort(cfg ispider.Config, drop bool) error {
	header("E2 — integration effort: intersection schemas vs classical iSpider")
	ig, err := ispider.RunIntersection(cfg, drop)
	if err != nil {
		return err
	}
	rep := ig.Report()
	fmt.Println("\nIntersection methodology (manual transformations per iteration):")
	fmt.Print(rep)

	cb, err := ispider.RunClassical(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\nClassical methodology (non-trivial transformations per stage/source):")
	for _, line := range cb.EffortBreakdown() {
		fmt.Println("  " + line)
	}
	fmt.Printf("  TOTAL: %d\n", cb.TotalNonTrivial())

	fmt.Println("\npaper vs measured:")
	fmt.Printf("  intersection manual total: paper=26  measured=%d\n", rep.TotalManual())
	fmt.Printf("  per iteration:             paper=6,1,1,15,3  measured=%s\n", perIteration(rep))
	fmt.Printf("  classical non-trivial:     paper=95 (19+35+41)  measured=%d (%d+%d+%d)\n",
		cb.TotalNonTrivial(),
		cb.NonTrivialCount("GS1", "gpmDB"),
		cb.NonTrivialCount("GS1", "PepSeeker"),
		cb.NonTrivialCount("GS2", "PepSeeker"))
	return nil
}

func perIteration(rep core.Report) string {
	var parts []string
	for _, it := range rep.Iterations {
		if it.Kind == "intersection" || it.Kind == "refinement" {
			parts = append(parts, fmt.Sprint(it.Counts.Manual()))
		}
	}
	return strings.Join(parts, ",")
}

// table1 reproduces E1: the seven priority queries over the integrated
// global schema.
func table1(cfg ispider.Config, drop bool) error {
	header("E1 — Table 1: the seven priority queries")
	ig, err := ispider.RunIntersection(cfg, drop)
	if err != nil {
		return err
	}
	for _, q := range ispider.Table1Queries() {
		fmt.Printf("\n%s (%s; answerable after %s)\n", q.ID, q.Description, q.After)
		fmt.Printf("  %s\n", q.IQL)
		res, err := ig.Query(q.IQL)
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		fmt.Printf("  -> %d result(s)", res.Value.Len())
		if n := res.Value.Len(); n > 0 && n <= 6 {
			fmt.Printf(": %s", res.Value)
		}
		fmt.Println()
		for _, w := range res.Warnings {
			fmt.Printf("  warning: %s\n", w)
		}
	}
	return nil
}

// curve reproduces E3: queries answerable against cumulative manual
// effort, for both methodologies.
func curve(cfg ispider.Config, drop bool) error {
	header("E3 — pay-as-you-go curve")
	pedro, gpmdb, pepseeker, err := ispider.Wrappers(cfg)
	if err != nil {
		return err
	}
	ig, err := core.New(pedro, gpmdb, pepseeker)
	if err != nil {
		return err
	}
	ig.SetAutoDrop(drop)
	if _, err := ig.Federate("F"); err != nil {
		return err
	}
	var points []render.CurvePoint
	answerable := func(stage string) []string {
		var out []string
		for _, q := range ispider.Table1Queries() {
			if ispider.AnswerableAfter(q, stage) {
				out = append(out, q.ID)
			}
		}
		return out
	}
	points = append(points, render.CurvePoint{
		Iteration: "F (federate)", CumulativeManual: 0, Answerable: answerable("F"),
	})
	cum := 0
	for _, step := range ispider.IntersectionPlan() {
		if err := ig.Apply(step.Step()); err != nil {
			return err
		}
		cum = ig.Report().Totals().Manual()
		points = append(points, render.CurvePoint{
			Iteration: step.Name, CumulativeManual: cum, Answerable: answerable(step.Name),
		})
	}
	fmt.Println()
	fmt.Print(render.Curve("intersection methodology:", points))

	cb, err := ispider.RunClassical(cfg)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(render.Curve("classical methodology (nothing answerable until complete):",
		[]render.CurvePoint{
			{Iteration: "GS1 (incomplete)", CumulativeManual: 54},
			{Iteration: "GS2 (incomplete)", CumulativeManual: 95},
			{Iteration: "GS3 (merge)", CumulativeManual: cb.TotalNonTrivial(),
				Answerable: []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"}},
		}))
	fmt.Println("\nshape check: intersection answers Q1 after 6 manual steps and all 7")
	fmt.Println("queries after 26; classical answers nothing before all 95.")
	return nil
}

// reverse demonstrates the BAV bidirectionality: source-schema queries
// answered from the integrated resource.
func reverse(cfg ispider.Config, drop bool) error {
	header("BAV reverse direction — source queries answered from the global schema")
	ig, err := ispider.RunIntersection(cfg, drop)
	if err != nil {
		return err
	}
	rp, err := ig.ReverseProcessor()
	if err != nil {
		return err
	}
	warned := map[string]bool{}
	for _, q := range []string{
		"count(<<protein>>)",
		"[x | {k, x} <- <<protein, accession_num>>; x = '" + ispider.SharedAccession + "']",
	} {
		e, err := iql.Parse(q)
		if err != nil {
			return err
		}
		v, ws, _, err := rp.EvalContext(context.Background(), e)
		if err != nil {
			return err
		}
		fmt.Printf("  Pedro-schema query %s -> %s\n", q, v)
		for _, w := range ws {
			warned[w] = true
		}
	}
	if len(warned) > 0 {
		fmt.Printf("  (%d incompleteness warnings for contracted objects)\n", len(warned))
	}
	return nil
}
