package iql

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ParallelExtents builds extents large enough to shard: n proteins
// with accession tuples and a hit relation joining back to proteins.
func ParallelExtents(n int) Extents {
	prot := make([]Value, 0, n)
	acc := make([]Value, 0, n)
	hits := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		prot = append(prot, Int(int64(i)))
		acc = append(acc, Tuple(Int(int64(i)), Str(fmt.Sprintf("P%d", i%7))))
		hits = append(hits, Tuple(Int(int64(i+1000)), Int(int64(i%n))))
	}
	return ExtentsFunc(func(parts []string) (Value, error) {
		switch strings.Join(parts, ",") {
		case "protein":
			return BagOf(prot), nil
		case "protein,acc":
			return BagOf(acc), nil
		case "hit,protein":
			return BagOf(hits), nil
		}
		return Value{}, fmt.Errorf("no extent %v", parts)
	})
}

// ParallelQueries is the shard-sensitive suite: plain scans, filters,
// projections, equi-joins (index probe path), nested comprehensions,
// aggregates and distinct over sharded inner comps. TestParallelMatchesSerial
// holds them to the reference evaluator.
var ParallelQueries = []string{
	"[k | k <- <<protein>>]",
	"[k | k <- <<protein>>; k > 100]",
	"[{k, k * 2} | k <- <<protein>>]",
	"[x | {k, x} <- <<protein, acc>>; x = 'P3']",
	"[{h, x} | {h, p} <- <<hit, protein>>; {k, x} <- <<protein, acc>>; p = k]",
	"count([k | k <- <<protein>>; k > 10])",
	"distinct([x | {k, x} <- <<protein, acc>>])",
	"[count([j | j <- <<protein>>; j < k]) | k <- <<protein>>; k < 70]",
	"sort([x | {k, x} <- <<protein, acc>>; k > 50])",
}

// countingExtents counts Extent calls; sharded workers reach it only
// through lockedExtents, the counter is atomic all the same.
type countingExtents struct {
	ext   Extents
	calls atomic.Int64
}

func (c *countingExtents) Extent(parts []string) (Value, error) {
	c.calls.Add(1)
	return c.ext.Extent(parts)
}

// TestParallelStepAccounting asserts the sharded path charges exactly
// the serial step count, through both counters: Evaluator.Used after a
// plain run, and a shared StepBudget — and, at a pool wider than the
// machine, that it asks the extent provider exactly as often as the
// serial loop (a constant tail source is evaluated once per scan, not
// once per worker that ran).
func TestParallelStepAccounting(t *testing.T) {
	ext := ParallelExtents(300)
	for _, src := range ParallelQueries {
		serialExt := &countingExtents{ext: ext}
		serial := NewEvaluator(serialExt)
		if _, err := serial.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("serial %q: %v", src, err)
		}
		wantSteps := serial.Steps()

		wideExt := &countingExtents{ext: ext}
		wide := NewEvaluator(wideExt)
		wide.Parallel = 8
		wide.MinShardRows = 16
		if _, err := wide.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("parallel(8) %q: %v", src, err)
		}
		if got := wide.Steps(); got != wantSteps {
			t.Errorf("%q: parallel(8) used %d steps, serial %d", src, got, wantSteps)
		}
		if got, want := wideExt.calls.Load(), serialExt.calls.Load(); got != want {
			t.Errorf("%q: parallel(8) made %d Extent calls, serial %d", src, got, want)
		}

		par := NewEvaluator(ext)
		par.Parallel = 4
		par.MinShardRows = 16
		if _, err := par.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("parallel %q: %v", src, err)
		}
		if got := par.Steps(); got != wantSteps {
			t.Errorf("%q: parallel used %d steps, serial %d", src, got, wantSteps)
		}

		budget := &StepBudget{}
		withBudget := NewEvaluator(ext)
		withBudget.Parallel = 4
		withBudget.MinShardRows = 16
		withBudget.Budget = budget
		if _, err := withBudget.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("budget parallel %q: %v", src, err)
		}
		if got := budget.Used(); got != wantSteps {
			t.Errorf("%q: shared budget used %d steps, serial %d", src, got, wantSteps)
		}
	}
}

// TestParallelStepLimit asserts a step bound trips in sharded mode
// with the same error text as serial, via MaxSteps and via a shared
// budget.
func TestParallelStepLimit(t *testing.T) {
	ext := ParallelExtents(400)
	src := "[k | k <- <<protein>>]"

	serial := &Evaluator{Ext: ext, MaxSteps: 50}
	_, serialErr := serial.Eval(MustParse(src), nil)
	if serialErr == nil {
		t.Fatal("serial under MaxSteps=50 succeeded, want step-limit error")
	}

	par := &Evaluator{Ext: ext, MaxSteps: 50, Parallel: 4, MinShardRows: 16}
	_, err := par.Eval(MustParse(src), nil)
	if err == nil || err.Error() != serialErr.Error() {
		t.Fatalf("parallel MaxSteps error = %v, want %v", err, serialErr)
	}

	par = &Evaluator{Ext: ext, Budget: &StepBudget{Max: 50}, Parallel: 4, MinShardRows: 16}
	if _, err := par.Eval(MustParse(src), nil); err == nil || !strings.Contains(err.Error(), "exceeded 50 steps") {
		t.Fatalf("parallel Budget error = %v, want step-limit error", err)
	}
}

// TestParallelCancelMidShard cancels evaluation while workers are mid-
// scan and asserts a prompt cancellation error and no leaked worker
// goroutines.
func TestParallelCancelMidShard(t *testing.T) {
	before := runtime.NumGoroutine()

	// A slow extent resolution inside the sharded loop gives the
	// cancellation a wide window: the nested comprehension re-resolves
	// <<protein>> per element through the locked extents.
	n := 0
	slow := ExtentsFunc(func(parts []string) (Value, error) {
		n++
		if n > 2 {
			time.Sleep(200 * time.Microsecond)
		}
		els := make([]Value, 400)
		for i := range els {
			els[i] = Int(int64(i))
		}
		return BagOf(els), nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	ev := NewEvaluator(slow)
	ev.Ctx = ctx
	ev.Parallel = 4
	ev.MinShardRows = 16
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ev.Eval(MustParse("[count([j | j <- <<protein>>; j < k]) | k <- <<protein>>]"), nil)
	if err == nil {
		// The query may legitimately finish before the cancel lands on
		// fast machines; only a hung or silent run is a failure.
		t.Skip("evaluation completed before cancellation landed")
	}
	if !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("got %v, want cancellation error", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt exit", d)
	}

	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak waits for the goroutine count to return to at
// most base (with headroom for runtime helpers), failing after 2s.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", base, now)
}

// TestParallelErrorPropagation asserts a mid-shard evaluation error
// surfaces and halts the pool.
func TestParallelErrorPropagation(t *testing.T) {
	before := runtime.NumGoroutine()
	ext := ParallelExtents(400)
	ev := NewEvaluator(ext)
	ev.Parallel = 4
	ev.MinShardRows = 16
	// Adding an int to a string fails for every element.
	_, err := ev.Eval(MustParse("[k + 'x' | k <- <<protein>>]"), nil)
	if err == nil {
		t.Fatal("want type error from sharded evaluation")
	}
	assertNoGoroutineLeak(t, before)
}

// TestParallelSerialFallback asserts small scans and nested generator
// loops stay serial (no pool-per-element blowup).
func TestParallelSerialFallback(t *testing.T) {
	ev := NewEvaluator(ParallelExtents(500))
	ev.Parallel = 4
	ev.MinShardRows = 16
	ev.Stats = &EvalStats{}
	// Outer scan shards; the nested comprehension runs inside worker
	// generator loops and must not shard again.
	if _, err := ev.Eval(MustParse("[count([j | j <- <<protein>>; j = k]) | k <- <<protein>>]"), nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range ev.Stats.Sharded() {
		if st.Rows != 500 {
			t.Errorf("sharded a %d-row scan; only the 500-row outer scan should shard", st.Rows)
		}
	}
	if len(ev.Stats.Sharded()) == 0 {
		t.Fatal("outer scan did not shard")
	}

	small := NewEvaluator(ParallelExtents(10))
	small.Parallel = 4
	small.MinShardRows = 16
	small.Stats = &EvalStats{}
	if _, err := small.Eval(MustParse("[k | k <- <<protein>>]"), nil); err != nil {
		t.Fatal(err)
	}
	if n := len(small.Stats.Sharded()); n != 0 {
		t.Errorf("10-row scan sharded %d times, want serial fallback", n)
	}
}

// TestShardBoundsPartition asserts shard bounds exactly tile [0, n).
func TestShardBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 64, 100, 1000, 12345} {
		for _, shards := range []int{1, 2, 3, 7, 16} {
			if shards > n {
				continue
			}
			prev := 0
			for s := 0; s < shards; s++ {
				lo, hi := shardBounds(n, shards, s)
				if lo != prev || hi < lo {
					t.Fatalf("shardBounds(%d, %d, %d) = [%d, %d), want lo %d", n, shards, s, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("shardBounds(%d, %d, ...) covered [0, %d), want [0, %d)", n, shards, prev, n)
			}
		}
	}
}

// TestShardPlan sanity-checks worker/shard selection.
func TestShardPlan(t *testing.T) {
	cases := []struct {
		n, parallel, min        int
		wantWorkers, wantShards int
	}{
		{1000, 8, 64, 8, 15},  // maxShards 15 caps the oversplit
		{128, 8, 64, 2, 2},    // two minimum shards, two workers
		{10000, 4, 64, 4, 16}, // full oversplit: 4 workers x 4
		{200, 2, 64, 2, 3},
	}
	for _, c := range cases {
		w, s := shardPlan(c.n, c.parallel, c.min)
		if w != c.wantWorkers || s != c.wantShards {
			t.Errorf("shardPlan(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.n, c.parallel, c.min, w, s, c.wantWorkers, c.wantShards)
		}
	}
}

// nestedExtents resolves <<view>> the way the query processor unfolds a
// virtual object: with an evaluator of its own, on the budget of the
// query that asked. It keeps the steps those evaluators report.
type nestedExtents struct {
	base     Extents
	budget   *StepBudget
	parallel int
	steps    atomic.Int64
}

func (n *nestedExtents) Extent(parts []string) (Value, error) {
	if parts[0] != "view" {
		return n.base.Extent(parts)
	}
	ev := &Evaluator{Ext: n, Budget: n.budget, Parallel: n.parallel, MinShardRows: 16}
	v, err := ev.Eval(MustParse("[{k, x} | {k, x} <- <<protein, acc>>; k > 3]"), nil)
	n.steps.Add(int64(ev.Steps()))
	return v, err
}

// countingCtx counts how often evaluation polls for cancellation.
type countingCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *countingCtx) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// TestParallelStepsAndUsedAgree: however a query's steps are counted —
// taken one by one from a budget with a limit, or counted by each
// evaluator and added when its Eval returns — Steps() is the serial
// count and Used() the sum over every evaluator on the budget, serial
// or sharded, nested evaluators included; and the context is polled
// once on entry and once every ctxCheckInterval steps of an evaluator.
func TestParallelStepsAndUsedAgree(t *testing.T) {
	base := ParallelExtents(300)
	queries := append([]string{
		"[{k, x} | {k, x} <- <<view>>; x = 'P3']",
		"[{h, x} | {h, p} <- <<hit, protein>>; {k, x} <- <<view>>; p = k]",
	}, ParallelQueries...)
	for _, src := range queries {
		ref := &nestedExtents{base: base}
		serial := &Evaluator{Ext: ref}
		if _, err := serial.Eval(MustParse(src), nil); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		wantSteps, wantUsed := serial.Steps(), serial.Steps()+int(ref.steps.Load())

		for _, parallel := range []int{1, 4} {
			for _, limit := range []int{0, wantUsed, wantUsed + 1000} {
				name := fmt.Sprintf("%q parallel=%d limit=%d", src, parallel, limit)
				budget := &StepBudget{Max: limit}
				ctx := &countingCtx{Context: context.Background()}
				ext := &nestedExtents{base: base, budget: budget, parallel: parallel}
				ev := &Evaluator{Ext: ext, Budget: budget, Ctx: ctx, Parallel: parallel, MinShardRows: 16}
				if _, err := ev.Eval(MustParse(src), nil); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := ev.Steps(); got != wantSteps {
					t.Errorf("%s: Steps() = %d, serial %d", name, got, wantSteps)
				}
				if got := budget.Used(); got != wantUsed {
					t.Errorf("%s: Used() = %d, want %d", name, got, wantUsed)
				}
				if got := int(ext.steps.Load()); got != wantUsed-wantSteps {
					t.Errorf("%s: nested evaluators report %d steps, want %d", name, got, wantUsed-wantSteps)
				}
				if parallel == 1 {
					// Sharded workers poll on their own counts.
					if got, want := int(ctx.polls.Load()), 1+wantSteps/ctxCheckInterval; got != want {
						t.Errorf("%s: context polled %d times over %d steps, want %d", name, got, wantSteps, want)
					}
				}
			}
		}

		// MaxSteps alone, no budget: the same count, the same limit.
		for _, parallel := range []int{1, 4} {
			ev := &Evaluator{Ext: &nestedExtents{base: base}, MaxSteps: wantSteps, Parallel: parallel, MinShardRows: 16}
			if _, err := ev.Eval(MustParse(src), nil); err != nil || ev.Steps() != wantSteps {
				t.Errorf("%q parallel=%d MaxSteps=%d: Steps() = %d, err %v", src, parallel, wantSteps, ev.Steps(), err)
			}
			ev.MaxSteps = wantSteps - 1
			if _, err := ev.Eval(MustParse(src), nil); err == nil || err.Error() != fmt.Sprintf("iql: evaluation exceeded %d steps", wantSteps-1) {
				t.Errorf("%q parallel=%d MaxSteps=%d: err %v, want the limit's", src, parallel, wantSteps-1, err)
			}
		}
	}
}
