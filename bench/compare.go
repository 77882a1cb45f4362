package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the part of the benchmark's definition
// that lives outside this package.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges b against a: worse than the bound allows is
// "regressed", better by more than the bound "improved", else "ok".
func verdict(a, b float64, m metricSpec) string {
	worse, better := b > a*(1+m.Bound), b < a*(1-m.Bound)
	if m.Better == "higher" {
		worse, better = b < a*(1-m.Bound), b > a*(1+m.Bound)
	}
	switch {
	case worse:
		return "regressed"
	case better:
		return "improved"
	}
	return "ok"
}

var errRegressed = errors.New("regression beyond the benchmark's bounds")

// compareReports prints one row per workload and end-to-end metric —
// both values, the ratio with its base, the verdict by BENCHMARK.json's
// bound — plus the error rate (any increase regresses) and, without a
// verdict, the latencies of payg_mixed's write classes, which have no
// counterpart in the other workloads and so no bound in BENCHMARK.json.
func compareReports(specPath, basePath, newPath string, w io.Writer) error {
	var spec benchSpec
	var a, b allReport
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(basePath, &a); err != nil {
		return err
	}
	if err := readJSON(newPath, &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tverdict")
	regressed := false
	row := func(workload, name string, av, bv float64, bound, v string) {
		ratio := "-"
		if av != 0 {
			ratio = fmt.Sprintf("%.3f (base %.4g)", bv/av, av)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%s\t%s\n", workload, name, av, bv, ratio, bound, v)
		regressed = regressed || v == "regressed"
	}
	for _, ws := range spec.Workloads {
		ra, rb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			return fmt.Errorf("workload %s is missing from a report", ws.Name)
		}
		ea, eb := ra.EndToEnd, rb.EndToEnd
		for _, m := range spec.EndToEnd {
			ma, oka := ea.Result.Metrics[m.Name]
			mb, okb := eb.Result.Metrics[m.Name]
			if !oka || !okb {
				return fmt.Errorf("%s: metric %s is missing from a report", ws.Name, m.Name)
			}
			row(ws.Name, m.Name, ma.Value, mb.Value, fmt.Sprintf("%.2f %s", m.Bound, m.Better), verdict(ma.Value, mb.Value, m))
		}
		rate := func(r *report) float64 { return float64(r.Result.Failed) / float64(max(r.Result.Attempted, 1)) }
		v := "ok"
		if rate(eb) > rate(ea) || (ea.Result.Correct && !eb.Result.Correct) {
			v = "regressed"
		}
		row(ws.Name, "error_rate", rate(ea), rate(eb), "any increase", v)
		for _, class := range []string{"step", "restore"} {
			ca, oka := ea.Classes[class]
			cb, okb := eb.Classes[class]
			if oka && okb {
				row(ws.Name, class+"_p50_ms", ca.P50Ms, cb.P50Ms, "-", "info")
				row(ws.Name, class+"_p99_ms", ca.P99Ms, cb.P99Ms, "-", "info")
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed {
		return errRegressed
	}
	return nil
}
