package automed

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
)

// buildCaseStudy builds the full intersection-based case study with the
// benchmark-sized synthetic sources and pins the processor's sharded-
// evaluation width.
func buildCaseStudy(t *testing.T, parallel int) *core.Integrator {
	t.Helper()
	ig, err := ispider.RunIntersection(ispider.BenchConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	ig.Processor().Parallel = parallel
	return ig
}

// mustQuery answers one Table 1 query or fails the test.
func mustQuery(t *testing.T, ig *core.Integrator, q ispider.CaseQuery) core.Result {
	t.Helper()
	res, err := ig.Query(q.IQL)
	if err != nil {
		t.Fatalf("%s: %v", q.ID, err)
	}
	return res
}

// checkSameAnswer asserts the serial and sharded answers to one query
// are byte-identical: value text, warning set, dependency closure, and
// the schema version they were answered against.
func checkSameAnswer(t *testing.T, phase string, q ispider.CaseQuery, ser, par core.Result) {
	t.Helper()
	if got, want := par.Value.String(), ser.Value.String(); got != want {
		t.Errorf("%s %s: parallel value differs from serial\n  serial:   %s\n  parallel: %s", phase, q.ID, want, got)
	}
	if !reflect.DeepEqual(ser.Warnings, par.Warnings) {
		t.Errorf("%s %s: warnings differ: serial %v, parallel %v", phase, q.ID, ser.Warnings, par.Warnings)
	}
	if !reflect.DeepEqual(ser.Deps, par.Deps) {
		t.Errorf("%s %s: deps differ: serial %v, parallel %v", phase, q.ID, ser.Deps, par.Deps)
	}
	if ser.Version != par.Version || ser.Schema != par.Schema {
		t.Errorf("%s %s: answered against %s v%d vs %s v%d", phase, q.ID,
			ser.Schema, ser.Version, par.Schema, par.Version)
	}
}

// TestParallelMatchesSerialTable1 is the end-to-end equivalence
// property for data-parallel sharded evaluation: every Table 1 query,
// answered over the fully integrated case study, must be byte-identical
// between a serial processor (Parallel = 1) and a sharded one
// (Parallel = 8) — across cold caches, warm memoised extents, targeted
// dependency invalidation, and a wholesale cache purge. It also pins
// down that the sharded path actually engaged (the property would be
// vacuous if every scan fell back to serial) and that no worker
// goroutines outlive their evaluation.
func TestParallelMatchesSerialTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full case-study integration twice")
	}
	baseGoroutines := runtime.NumGoroutine()
	serial := buildCaseStudy(t, 1)
	sharded := buildCaseStudy(t, 8)
	queries := ispider.Table1Queries()

	// Cold caches: the first answer pays the full GAV unfolding, so the
	// sharded run exercises worker extent resolution through the locked
	// session as well as sharded generator scans.
	cold := make(map[string]core.Result, len(queries))
	for _, q := range queries {
		ser := mustQuery(t, serial, q)
		par := mustQuery(t, sharded, q)
		checkSameAnswer(t, "cold", q, ser, par)
		cold[q.ID] = ser
	}

	// Warm: memoised virtual extents serve both processors.
	for _, q := range queries {
		checkSameAnswer(t, "warm", q, mustQuery(t, serial, q), mustQuery(t, sharded, q))
	}

	// Targeted invalidation: evicting exactly each answer's dependency
	// closure forces re-derivation along the same paths on both sides.
	for _, q := range queries {
		serial.Processor().InvalidateSchemes(cold[q.ID].Deps...)
		sharded.Processor().InvalidateSchemes(cold[q.ID].Deps...)
		ser := mustQuery(t, serial, q)
		par := mustQuery(t, sharded, q)
		checkSameAnswer(t, "invalidated", q, ser, par)
		checkSameAnswer(t, "invalidated-vs-cold", q, cold[q.ID], par)
	}

	// Wholesale purge: everything re-derives from the source extents.
	serial.Processor().InvalidateCache()
	sharded.Processor().InvalidateCache()
	for _, q := range queries {
		checkSameAnswer(t, "purged", q, mustQuery(t, serial, q), mustQuery(t, sharded, q))
	}

	ps := sharded.Processor().ParallelStats()
	if ps.ParallelEvals == 0 || ps.Shards == 0 {
		t.Errorf("sharded processor never sharded a scan: %+v", ps)
	}
	if ss := serial.Processor().ParallelStats(); ss.ParallelEvals != 0 {
		t.Errorf("serial processor reports sharded evals: %+v", ss)
	}

	// Every sharded worker must have unwound with its evaluation.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after", baseGoroutines, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
