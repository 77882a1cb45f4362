package query

import (
	"context"
	"sort"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// TestResolutionConsumersAgree drives the four consumers of resolve —
// evaluation, the stream position, the prefetch plan and Explain —
// over every kind of reference and asserts they reach the same source
// object with the same dependency keys.
func TestResolutionConsumersAgree(t *testing.T) {
	one := iql.Bag(iql.Int(1))
	a := newCountingSource(t, "A", map[string]iql.Value{"<<t>>": one, "<<tbl, col>>": one}, 0)
	b := newCountingSource(t, "B", map[string]iql.Value{"<<t>>": one}, 0)
	p := New()
	for _, w := range []*countingSource{a, b} {
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
	}
	p.Define(hdm.MustScheme("<<v>>"), iql.MustParse("[x | x <- <<col>>]"), "A->G", "A")
	p.Define(hdm.MustScheme("<<alias1>>"), iql.MustParse("<<t>>"), "B->F", "B")
	p.Define(hdm.MustScheme("<<alias2>>"), iql.MustParse("<<alias1>>"), "F->G", "")

	cases := []struct {
		name  string
		scope string
		ref   string
		// src and obj name the source object every consumer must reach;
		// empty when the reference reaches none.
		src, obj string
		deps     []string // evaluation's (and, when it commits, the stream position's) dependency keys
		streams  bool     // the stream position follows the reference to src/obj
		evalErr  string
		explain  string
	}{
		{name: "in-scope hit", scope: "B", ref: "<<t>>", src: "B", obj: "t",
			deps: []string{"t"}, streams: true, explain: "source object <<t>> in B"},
		{name: "virtual", ref: "<<v>>", src: "A", obj: "tbl|col",
			deps: []string{"tbl|col", "v"}, explain: "<<v>>: 1 derivation(s)"},
		{name: "virtual bare-rename chain", ref: "<<alias2>>", src: "B", obj: "t",
			deps: []string{"alias1", "alias2", "t"}, streams: true, explain: "<<alias1>>: 1 derivation(s)"},
		{name: "single global hit", ref: "<<col>>", src: "A", obj: "tbl|col",
			deps: []string{"col", "tbl|col"}, streams: true, explain: "source object <<tbl, col>> in A"},
		{name: "ambiguous", ref: "<<t>>",
			evalErr: "ambiguous across sources A, B", explain: "AMBIGUOUS across A, B"},
		{name: "unknown", ref: "<<zzz>>",
			evalErr: "unknown schema object", explain: "UNKNOWN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := hdm.MustScheme(tc.ref).Parts()
			p.InvalidateCache()
			calls := map[string]int{"A": a.calls, "B": b.calls}

			// Evaluation.
			s := p.newSession(context.Background(), tc.scope)
			_, err := s.Extent(parts)
			if tc.evalErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.evalErr) {
					t.Fatalf("evaluation error = %v, want %q", err, tc.evalErr)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			for name, src := range map[string]*countingSource{"A": a, "B": b} {
				want := 0
				if name == tc.src {
					want = 1
				}
				if got := src.calls - calls[name]; got != want {
					t.Errorf("evaluation made %d calls to %s, want %d", got, name, want)
				}
			}
			if got := s.deps(); strings.Join(got, " ") != strings.Join(tc.deps, " ") {
				t.Errorf("evaluation deps = %v, want %v", got, tc.deps)
			}

			// Stream position.
			p.InvalidateCache()
			r, deps, ok := p.chase(p.addresses(), tc.scope, parts, nil)
			if ok != tc.streams {
				t.Fatalf("stream position follows the reference = %v, want %v", ok, tc.streams)
			}
			if ok {
				if r.src.name != tc.src || r.sc.Key() != tc.obj {
					t.Errorf("stream position reaches %s/%s, want %s/%s", r.src.name, r.sc.Key(), tc.src, tc.obj)
				}
				deps = cache.Dedup(deps)
				sort.Strings(deps)
				if strings.Join(deps, " ") != strings.Join(tc.deps, " ") {
					t.Errorf("stream position deps = %v, want %v", deps, tc.deps)
				}
			}

			// Prefetch plan.
			pf := prefetcher{p: p, addr: p.addresses()}
			pf.visitRef(parts, tc.scope, 0)
			switch {
			case tc.src == "" && len(pf.tasks) != 0:
				t.Errorf("prefetch plans %d reads for a reference that reaches no source", len(pf.tasks))
			case tc.src != "" && (len(pf.tasks) != 1 || pf.tasks[0].src.name != tc.src || pf.tasks[0].sc.Key() != tc.obj):
				t.Errorf("prefetch plan = %+v, want one read of %s/%s", pf.tasks, tc.src, tc.obj)
			}

			// Explain.
			var sb strings.Builder
			p.explain(&sb, p.resolve(tc.scope, parts), parts, 0, make(map[string]bool))
			if !strings.Contains(sb.String(), tc.explain) {
				t.Errorf("Explain lacks %q:\n%s", tc.explain, sb.String())
			}
		})
	}
}
