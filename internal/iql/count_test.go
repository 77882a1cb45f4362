package iql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// count(comprehension) runs the comprehension into a counting sink
// instead of building its bag: its value is the bag's length, and it
// takes one step more than the comprehension (the call's).

// countExtents serves <<s>> of mixed values off the iqltest generator,
// about half of them pairs; <<t>>, a shuffled tenth of them; <<pairs>>
// of {i, i mod 10}; and <<nums>>, integers but for a string in third
// place.
func countExtents(rows int) iql.Extents {
	r := rand.New(rand.NewSource(15))
	s := make([]iql.Value, rows)
	for i := range s {
		if r.Intn(2) == 0 {
			s[i] = iql.Tuple(iqltest.Value(r, 1), iql.Int(int64(r.Intn(10))))
		} else {
			s[i] = iqltest.Value(r, 2)
		}
	}
	t := make([]iql.Value, rows/10)
	for i := range t {
		t[i] = s[r.Intn(rows)]
	}
	nums, pairs := make([]iql.Value, rows), make([]iql.Value, rows)
	for i := range nums {
		nums[i] = iql.Int(int64(i))
		pairs[i] = iql.Tuple(nums[i], iql.Int(int64(i%10)))
	}
	nums[2] = iql.Str("three")
	return iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		switch strings.Join(parts, ",") {
		case "s":
			return iql.BagOf(s), nil
		case "t":
			return iql.BagOf(t), nil
		case "pairs":
			return iql.BagOf(pairs), nil
		case "nums":
			return iql.BagOf(nums), nil
		}
		return iql.Value{}, fmt.Errorf("no extent %v", parts)
	})
}

// countComps are comprehensions whose count is worth taking: a plain
// scan, a pattern that skips what it does not match, filters (one that
// fails), a head that does work, a join, a nested comprehension under
// count, and a head that fails on the third row. And tuple heads of
// variables, which a count copies from the generators' scopes by slot
// where every component is bound by one of the comprehension's own
// generators: one that names an outer comprehension's variable, which
// has no slot; one that names a variable two generators bind, where the
// later binding is the one seen; one over a pattern that repeats a name;
// and one with a "_" component beside the variables, which nothing
// binds, and a pattern with one.
var countComps = []string{
	"[x | x <- <<s>>]",
	"[k | {k, v} <- <<s>>]",
	"[k | {k, v} <- <<pairs>>; v < 5]",
	"[k | {k, v} <- <<pairs>>; v < 0]",
	"[{v, k, v + 1} | {k, v} <- <<pairs>>; v > 2]",
	"[k | {k, v} <- <<s>>; v < 5]", // fails where v is no number
	"[{x, y} | x <- <<s>>; y <- <<t>>; x = y]",
	"[count([y | y <- <<t>>; y = x]) | x <- <<s>>]",
	"[x + 1 | x <- <<nums>>]",
	"[count([{x, y} | y <- <<t>>; y = x]) | x <- <<s>>]",
	"[{x, k} | {k, x} <- <<pairs>>; x < 2; {x, y} <- <<pairs>>; y = k]",
	"[{v, k, v} | {k, k, v} <- [{1, 2, 3}, {4, 5, 6}]; {v, w} <- <<pairs>>; w = k]",
	"[{k, k} | {k, k} <- <<pairs>>]",
	"[{k, _} | {k, v} <- <<pairs>>]",
	"[{v, k} | {k, _, v} <- [{1, 2, 3}, {4, 5}, {6, 7, 8}]]",
}

// TestCountOfComprehensionMatchesMaterialised holds countComps, and
// their counts, to the reference in every mode, and sweeps each under
// step limits (see sweepStepLimits) — the join exactly: a probe key that
// runs out of steps gives up at the step after the limit, as a scan
// does, and is not retried as one.
func TestCountOfComprehensionMatchesMaterialised(t *testing.T) {
	ext := countExtents(400)
	for _, comp := range countComps {
		agree(t, ext, nil, comp)
	}
	small := countExtents(100)
	for _, comp := range countComps {
		sweepStepLimits(t, small, comp, comp == "[{x, y} | x <- <<s>>; y <- <<t>>; x = y]")
	}
}

// TestCountStepBudgetRunsOutAtTheSameStep: under every step limit from
// none too few to just enough, count(comprehension) and the
// comprehension agree on whether the limit holds, with the same error
// when it does not.
func TestCountStepBudgetRunsOutAtTheSameStep(t *testing.T) {
	sweepStepLimits(t, countExtents(100), "[k | {k, v} <- <<pairs>>; v < 5]", true)
}

// sweepStepLimits evaluates count(comp) under step limits from none too
// few to just enough, and comp under one step less (the call's), in
// every mode: both fail, or neither; a limit fails as the limit it was
// given, any other error alike; and the count gives up a step after the
// comprehension — and, when exact, at the step after the limit. A
// count's head goes to a counting sink, a tuple head into a scratch row,
// from the generators' slots where it can be, and the comprehension's to
// its bag by eval: this holds the one to the other at every limit.
func sweepStepLimits(t *testing.T, ext iql.Extents, comp string, exact bool) {
	t.Helper()
	count := "count(" + comp + ")"
	free := iql.NewEvaluator(ext)
	_, freeErr := free.Eval(iql.MustParse(count), nil)
	total := free.Steps()
	exceeded := func(limit int) string { return fmt.Sprintf("iql: evaluation exceeded %d steps", limit) }
	for _, mode := range modes {
		for _, limit := range []int{2, 3, total / 2, total - 1, total} {
			bagEv := mode.ev(ext)
			bagEv.MaxSteps = limit - 1
			_, bagErr := bagEv.Eval(iql.MustParse(comp), nil)
			countEv := mode.ev(ext)
			countEv.MaxSteps = limit
			_, err := countEv.Eval(iql.MustParse(count), nil)
			if (err == nil) != (limit >= total && freeErr == nil) {
				t.Errorf("%s, %s: limit %d of %d steps: count error = %v", comp, mode.name, limit, total, err)
			}
			if (err == nil) != (bagErr == nil) {
				t.Errorf("%s, %s: limit %d: count error = %v, the comprehension's under %d = %v", comp, mode.name, limit, err, limit-1, bagErr)
			}
			if err == nil || bagErr == nil {
				continue
			}
			if limit < total && (err.Error() != exceeded(limit) || bagErr.Error() != exceeded(limit-1)) ||
				limit >= total && err.Error() != bagErr.Error() {
				t.Errorf("%s, %s: limit %d: count error = %v, the comprehension's = %v", comp, mode.name, limit, err, bagErr)
			}
			if exact && limit < total && countEv.Steps() != limit+1 || countEv.Steps() != bagEv.Steps()+1 {
				t.Errorf("%s, %s: limit %d: the count gave up at step %d, the comprehension at %d", comp, mode.name, limit, countEv.Steps(), bagEv.Steps())
			}
		}
	}
}

// TestCountDoesNotBuildItsBag pins what the fold is for: counting a
// filtered scan allocates the same whether no row passes the filter or
// every row does.
func TestCountDoesNotBuildItsBag(t *testing.T) {
	rows := make([]iql.Value, 10000)
	for i := range rows {
		rows[i] = iql.Tuple(iql.Int(int64(i)), iql.Int(int64(i%100)))
	}
	ev := iql.NewEvaluator(iql.ExtentsFunc(func([]string) (iql.Value, error) { return iql.BagOf(rows), nil }))
	allocs := func(src string, want int64) float64 {
		e := iql.MustParse(src)
		return testing.AllocsPerRun(5, func() {
			if v, err := ev.Eval(e, nil); err != nil || v.I() != want {
				t.Fatalf("%s = %v, %v; want %d", src, v, err, want)
			}
		})
	}
	none := allocs("count([k | {k, v} <- <<s>>; v < 0])", 0)
	all := allocs("count([k | {k, v} <- <<s>>; v < 100])", 10000)
	if none != all {
		t.Errorf("counting 10000 rows allocates %.0f times when every row passes the filter, %.0f when none does", all, none)
	}
}

// cancelledOnSecondPoll is a context that is live when evaluation begins
// and cancelled at the next poll.
type cancelledOnSecondPoll struct {
	context.Context
	polls int
}

func (c *cancelledOnSecondPoll) Err() error {
	if c.polls++; c.polls > 1 {
		return context.Canceled
	}
	return nil
}

// TestCancelledProbeIsNotScanned: a join whose probe key finds the
// context cancelled returns the context's error at that step, in every
// mode, and scans nothing. Were it taken for an error of the probe's
// own, the scan that stands in for one would go on past the
// cancellation: here, over an empty source, to an answer.
func TestCancelledProbeIsNotScanned(t *testing.T) {
	big := make([]iql.Value, 1000)
	for i := range big {
		big[i] = iql.Int(int64(i))
	}
	ext := iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		if parts[0] == "big" {
			return iql.BagOf(big), nil
		}
		return iql.BagOf(nil), nil
	})
	// The probe key walks <<big>>, some thousands of steps, so the
	// evaluation's first poll after it began, at step 1024, is inside it.
	q := iql.MustParse("[x | x <- <<none>>; x = count([z | z <- <<big>>; z >= 0])]")
	for _, mode := range modes {
		ev := mode.ev(ext)
		ev.Ctx = &cancelledOnSecondPoll{Context: context.Background()}
		if v, err := ev.Eval(q, nil); !errors.Is(err, context.Canceled) || ev.Steps() != 1024 {
			t.Errorf("%s: %s, %v after %d steps; want the cancellation at step 1024", mode.name, v, err, ev.Steps())
		}
	}
}
