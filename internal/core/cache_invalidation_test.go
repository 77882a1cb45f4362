package core

import "testing"

// TestIterationKeepsUntouchedExtentsWarm pins the survival half of the
// contract at the processor level: after an iteration, a memoised
// extent for an untouched scheme is served from cache, while the
// touched scheme's stale entry is gone and recomputed.
func TestIterationKeepsUntouchedExtentsWarm(t *testing.T) {
	ig := newIntegrator(t)
	if _, err := ig.Federate("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Intersect("I1", bookMappings()); err != nil {
		t.Fatal(err)
	}
	warm := func(q string) Result {
		t.Helper()
		res, err := ig.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm("<<UBook, isbn>>")
	before := warm("<<UBook, title>>")

	// An iteration touching only <<UBook, title>>.
	if err := ig.Refine("title2", Attribute("<<UBook, title>>",
		From("Library", "[{'LIB2', k, x} | {k, x} <- <<books, title>>]"))); err != nil {
		t.Fatal(err)
	}

	memo0, _ := ig.Processor().CacheStats()
	isbn := warm("<<UBook, isbn>>") // untouched: must be a memo hit
	memo1, _ := ig.Processor().CacheStats()
	if memo1.Hits != memo0.Hits+1 || memo1.Misses != memo0.Misses {
		t.Fatalf("untouched scheme not served from cache: hits %d->%d misses %d->%d",
			memo0.Hits, memo1.Hits, memo0.Misses, memo1.Misses)
	}
	if isbn.Value.Len() != 5 {
		t.Fatalf("isbn extent = %s", isbn.Value)
	}

	after := warm("<<UBook, title>>") // touched: must be recomputed
	memo2, _ := ig.Processor().CacheStats()
	if memo2.Misses != memo1.Misses+1 {
		t.Fatalf("touched scheme served stale from cache: misses %d->%d", memo1.Misses, memo2.Misses)
	}
	// The recomputation reflects the new derivation: three more titles.
	if after.Value.Len() != before.Value.Len()+3 {
		t.Fatalf("title extent %d -> %d elements, want +3 from the new derivation",
			before.Value.Len(), after.Value.Len())
	}
}
