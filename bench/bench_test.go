package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// Nothing here asserts on wall-clock time: the suite checks what the
// benchmark generates, counts and reports, never how fast.

func testOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: 7, seconds: 0.4, warmup: 50 * time.Millisecond,
		gaugeRead: 20 * time.Millisecond, sizes: tiny, scratch: t.TempDir()}
}

func mustSetup(t *testing.T, workload string, seed uint64) *fixture {
	t.Helper()
	setup, err := setupFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	f, err := setup(seed, tiny, t.TempDir())
	if err != nil {
		if f != nil {
			f.stop()
		}
		t.Fatal(err)
	}
	t.Cleanup(f.stop)
	return f
}

// draw renders the first n ops of every client's stream, oracle
// answers included.
func draw(f *fixture, n int) string {
	var b strings.Builder
	for c := range clients {
		st := f.streamFor(c)
		for range n {
			o := st.next()
			fmt.Fprintf(&b, "%d %s %v %s %s %s\n", c, o.class, o.cold, o.path, o.body, o.want)
		}
	}
	return b.String()
}

func TestEqualSeedsGiveIdenticalStreamsAndOracles(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := mustSetup(t, w.name, 3), mustSetup(t, w.name, 3), mustSetup(t, w.name, 4)
			sa, sb, so := draw(a, 200), draw(b, 200), draw(other, 200)
			if sa != sb {
				t.Error("two set-ups with seed 3 generated different op streams or oracle answers")
			}
			if sa == so {
				t.Error("seeds 3 and 4 generated the same op stream and oracle answers")
			}
		})
	}
}

// The closed forms scan_large checks its responses against must agree
// with what a serial, materialising integrator computes.
func TestScanLargeClosedFormsMatchTheOracle(t *testing.T) {
	f := mustSetup(t, "scan_large", 5)
	orc, err := newOracle(f.sources)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	st := f.streamFor(0)
	for range 300 {
		o := st.next()
		if seen[o.text] {
			continue
		}
		seen[o.text] = true
		want, err := oracleNeedle(orc, o.text)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, o.want) {
			t.Errorf("%s: closed form %s, oracle %s", o.text, o.want, want)
		}
	}
	if len(seen) < 3*tiny.scanConsts {
		t.Fatalf("only %d distinct texts drawn", len(seen))
	}
}

func TestCorruptedOracleEntryIsAFailedOp(t *testing.T) {
	o := testOptions(t, "table1_warm")
	f := mustSetup(t, o.workload, o.seed)
	// Ops are shared by every stream of the fixture, so corrupting the
	// ones a scratch stream yields corrupts the run's.
	st := f.streamFor(0)
	for range 50 {
		if op := st.next(); op.class == "Q3" {
			op.want = []byte(`"rendered":"not the answer"`)
		}
	}
	g, err := newGauge(o.gaugeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	rep, err := measureOn(f, o, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Correct || rep.Result.Failed == 0 {
		t.Errorf("correct=%v failed=%d of %d with a corrupted oracle entry", rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted)
	}
	if rep.Result.Failed >= rep.Result.Attempted {
		t.Errorf("every op failed (%d of %d); only Q3 was corrupted", rep.Result.Failed, rep.Result.Attempted)
	}
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDeclared fails unless got is exactly the declared metrics, each
// with its declared unit.
func checkDeclared(t *testing.T, got map[string]metric, declared []metricSpec) {
	t.Helper()
	want := make(map[string]string)
	for _, m := range declared {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		want[m.Name] = m.Unit
	}
	for name, m := range got {
		if unit, ok := want[name]; !ok {
			t.Errorf("emitted metric %s is not declared in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json declares %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("declared metric %s was not emitted", name)
		}
	}
}

func TestEveryWorkloadEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark has %v", names, have)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := testOptions(t, w.name)
			rep, err := measure(o)
			if err != nil {
				t.Fatal(err)
			}
			// Correct covers payg_mixed's stationarity check too.
			if !rep.Result.Correct || rep.Result.Failed != 0 {
				t.Errorf("untraced run: correct=%v failed=%d errors=%v", rep.Result.Correct, rep.Result.Failed, rep.Errors)
			}
			checkDeclared(t, rep.Result.Metrics, spec.EndToEnd)

			o.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			tr, err := traced(o)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Result.Correct || tr.Result.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d errors=%v", tr.Result.Correct, tr.Result.Failed, tr.Errors)
			}
			checkDeclared(t, tr.Result.Metrics, spec.PerLayer)
			if data, err := os.ReadFile(o.traceOut); err != nil || !bytes.Contains(data, []byte(`"name":"http"`)) {
				t.Errorf("span file: %v, %d bytes, no http rung span", err, len(data))
			}
		})
	}
}

// Counts and ratios of a traced run are functions of the seed alone —
// all but the extent memo's hit ratio: under sharded evaluation every
// worker looks its extents up for itself, so the number of lookups
// depends on how the shards happened to be shared out.
func TestTracedCountsRepeatExactly(t *testing.T) {
	exact := func(rep *report) map[string]float64 {
		out := make(map[string]float64)
		for name, m := range rep.Result.Metrics {
			if (m.Unit == "count" || m.Unit == "ratio") && name != "query.extent_memo_hit_ratio" {
				out[name] = m.Value
			}
		}
		return out
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := traced(testOptions(t, w.name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := traced(testOptions(t, w.name))
			if err != nil {
				t.Fatal(err)
			}
			ea, eb := exact(a), exact(b)
			for _, name := range []string{"iql.steps_per_query", "wrapper.fetches", "core.invalidated_keys_per_step", "server.result_cache_hit_ratio"} {
				if _, ok := ea[name]; !ok {
					t.Errorf("exact metric %s missing", name)
				}
			}
			if !maps.Equal(ea, eb) {
				for name, v := range ea {
					if eb[name] != v {
						t.Errorf("%s: %v in one run, %v in the next", name, v, eb[name])
					}
				}
			}
		})
	}
}

func TestCompareJudgesByTheBounds(t *testing.T) {
	spec := loadSpec(t)
	mk := func(scale map[string]float64, failed int) allReport {
		all := allReport{Workloads: make(map[string]*workloadRun)}
		for _, w := range spec.Workloads {
			rep := &report{Result: result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: make(map[string]metric)}}
			for _, m := range spec.EndToEnd {
				f, ok := scale[m.Name]
				if !ok {
					f = 1
				}
				rep.Result.Metrics[m.Name] = metric{100 * f, m.Unit}
			}
			all.Workloads[w.Name] = &workloadRun{EndToEnd: rep}
		}
		return all
	}
	dir := t.TempDir()
	write := func(name string, all allReport) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, all); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	base := write("base.json", mk(nil, 0))
	for _, tc := range []struct {
		name    string
		other   allReport
		want    string // a row that must appear
		regress bool
	}{
		{"same", mk(nil, 0), "ok", false},
		{"slower p50", mk(map[string]float64{"query_p50_ms": 1.5}, 0), "regressed", true},
		{"faster p50", mk(map[string]float64{"query_p50_ms": 0.5}, 0), "improved", false},
		{"less throughput", mk(map[string]float64{"ops_per_s": 0.5}, 0), "regressed", true},
		{"more throughput", mk(map[string]float64{"ops_per_s": 1.5}, 0), "improved", false},
		{"within bound", mk(map[string]float64{"query_p50_ms": 1.01}, 0), "ok", false},
		{"an error", mk(nil, 1), "regressed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := compareReports(specPath, base, write("other.json", tc.other), &out)
			if (err != nil) != tc.regress {
				t.Errorf("err = %v, want regression %v\n%s", err, tc.regress, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("no %q row in\n%s", tc.want, out.String())
			}
			if rows := strings.Count(out.String(), "\n"); rows != 1+len(spec.Workloads)*(len(spec.EndToEnd)+1) {
				t.Errorf("%d lines, want a header and one row per workload and metric plus error_rate\n%s", rows, out.String())
			}
		})
	}
}
