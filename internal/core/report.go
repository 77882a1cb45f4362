package core

import (
	"fmt"
	"strings"
)

// StepCounts tallies the transformation steps produced by one workflow
// iteration, split by who wrote them. The paper's effort metric counts
// the manual steps; everything else is generated by the Intersection
// Schema Tool.
type StepCounts struct {
	// ManualAdds are add steps written by the integrator (the paper's
	// headline count: 26 for the case study).
	ManualAdds int `json:"manual_adds,omitempty"`
	// ManualDeletes are user-specified reverse (delete) mappings for
	// forward queries the tool could not invert.
	ManualDeletes int `json:"manual_deletes,omitempty"`
	// AutoAdds are tool-generated adds (e.g. parent entities implied
	// by attribute mappings).
	AutoAdds int `json:"auto_adds,omitempty"`
	// AutoDeletes are reverse mappings the tool derived from simple
	// forward queries.
	AutoDeletes int `json:"auto_deletes,omitempty"`
	// AutoExtends are Range Void Any placeholders for intersection
	// objects a source does not contribute to.
	AutoExtends int `json:"auto_extends,omitempty"`
	// AutoContracts remove the unmapped remainder of each source
	// schema on the way to the intersection schema.
	AutoContracts int `json:"auto_contracts,omitempty"`
	// AutoIDs are the id steps expanded from ident operations between
	// union-compatible intersection images.
	AutoIDs int `json:"auto_ids,omitempty"`
	// AutoRenames are federation prefixing steps.
	AutoRenames int `json:"auto_renames,omitempty"`
}

// Manual returns the total number of integrator-written steps.
func (c StepCounts) Manual() int { return c.ManualAdds + c.ManualDeletes }

// Auto returns the total number of tool-generated steps.
func (c StepCounts) Auto() int {
	return c.AutoAdds + c.AutoDeletes + c.AutoExtends + c.AutoContracts + c.AutoIDs + c.AutoRenames
}

// Add accumulates counts.
func (c *StepCounts) Add(d StepCounts) {
	c.ManualAdds += d.ManualAdds
	c.ManualDeletes += d.ManualDeletes
	c.AutoAdds += d.AutoAdds
	c.AutoDeletes += d.AutoDeletes
	c.AutoExtends += d.AutoExtends
	c.AutoContracts += d.AutoContracts
	c.AutoIDs += d.AutoIDs
	c.AutoRenames += d.AutoRenames
}

// String renders a compact summary.
func (c StepCounts) String() string {
	return fmt.Sprintf("manual=%d (adds=%d deletes=%d) auto=%d (adds=%d deletes=%d extends=%d contracts=%d ids=%d renames=%d)",
		c.Manual(), c.ManualAdds, c.ManualDeletes, c.Auto(),
		c.AutoAdds, c.AutoDeletes, c.AutoExtends, c.AutoContracts, c.AutoIDs, c.AutoRenames)
}

// Iteration records one step of the pay-as-you-go workflow.
type Iteration struct {
	// Name labels the iteration (e.g. "I1", "refine-description").
	Name string `json:"name"`
	// Kind is "federate", "intersection", "refinement", "global", or
	// "backfill": the version published when sources that federation
	// skipped were recovered (Backfill).
	Kind string `json:"kind"`
	// Counts tallies the transformations produced.
	Counts StepCounts `json:"counts"`
	// Enables lists the workload queries first answerable after this
	// iteration (the query-driven prioritisation of paper §3).
	Enables []string `json:"enables,omitempty"`
	// GlobalSchema names the global schema version current after the
	// iteration.
	GlobalSchema string `json:"global_schema"`
}

// Report summarises a whole integration session.
type Report struct {
	Iterations []Iteration
}

// Totals accumulates counts across iterations.
func (r Report) Totals() StepCounts {
	var t StepCounts
	for _, it := range r.Iterations {
		t.Add(it.Counts)
	}
	return t
}

// TotalManual is the paper's headline effort number.
func (r Report) TotalManual() int { return r.Totals().Manual() }

// CumulativeManual returns, per iteration, the running total of manual
// steps — the x-axis of the pay-as-you-go curve.
func (r Report) CumulativeManual() []int {
	out := make([]int, len(r.Iterations))
	sum := 0
	for i, it := range r.Iterations {
		sum += it.Counts.Manual()
		out[i] = sum
	}
	return out
}

// String renders the report as an aligned table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-13s %7s %7s  %s\n", "iteration", "kind", "manual", "auto", "enables")
	cum := 0
	for _, it := range r.Iterations {
		cum += it.Counts.Manual()
		fmt.Fprintf(&b, "%-22s %-13s %7d %7d  %s\n",
			it.Name, it.Kind, it.Counts.Manual(), it.Counts.Auto(), strings.Join(it.Enables, ","))
	}
	t := r.Totals()
	fmt.Fprintf(&b, "%-22s %-13s %7d %7d\n", "TOTAL", "", t.Manual(), t.Auto())
	return b.String()
}
