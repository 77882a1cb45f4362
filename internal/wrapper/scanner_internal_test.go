package wrapper

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
)

// fakePages is a backend for the page loop: page n (counted from 0, as
// calls has it before the read) holds rows[n] rows — one when rows is
// shorter — and is the last where next says so.
type fakePages struct {
	rows  []int
	next  func(n int, cursor any) (any, bool)
	calls int
}

func (f *fakePages) scanner() *pagedScanner {
	page := func(_ context.Context, cursor any, items []iql.Value) ([]iql.Value, any, bool, error) {
		n := f.calls
		f.calls++
		rows := 1
		if n < len(f.rows) {
			rows = f.rows[n]
		}
		if items == nil {
			items = make([]iql.Value, 0, 4) // as the wrappers' pages are allocated
		}
		for i := range rows {
			items = append(items, iql.Int(int64(100*n+i)))
		}
		next, done := f.next(n, cursor)
		return items, next, done, nil
	}
	return &pagedScanner{page: page, wrap: func(err error) error { return fmt.Errorf("fake: %w", err) }}
}

// drain reads a scanner to its end, returning the pages it handed out.
func drain(ctx context.Context, s Scanner) (pages [][]iql.Value) {
	for s.Next(ctx) {
		pages = append(pages, s.Page())
	}
	return pages
}

// TestPagedScannerGuards: what the one page loop guards, each over a
// fake backend and each failing without its guard — a cursor repeated
// (a []byte, as drivers hand keys out) or sent back to the start, a
// chain with no end, a context cancelled between pages, pages that
// decode to no rows, a Close in the middle of a chain.
func TestPagedScannerGuards(t *testing.T) {
	ctx := context.Background()

	// Pages at cursors nil, [1] and [2]; the third names [2] again.
	f := &fakePages{next: func(n int, _ any) (any, bool) { return []byte{byte(min(n+1, 2))}, false }}
	s := f.scanner()
	pages := drain(ctx, s)
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "did not advance") || f.calls != 3 || len(pages) != 2 {
		t.Errorf("a repeated cursor: %d pages read, %d handed out, error %v; want the third read to fail", f.calls, len(pages), err)
	}

	// A page ending on a nil cursor — a SQL page on a NULL key — would
	// start the chain over.
	f = &fakePages{next: func(n int, _ any) (any, bool) { return []any{1, nil}[min(n, 1)], n == 3 }}
	s = f.scanner()
	pages = drain(ctx, s)
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "did not advance") || f.calls != 2 || len(pages) != 1 {
		t.Errorf("a nil cursor: %d pages read, %d handed out, error %v; want the second read to fail", f.calls, len(pages), err)
	}

	// A chain that never ends stops at the cap (and the backend ends it
	// one page later, should the cap not hold).
	f = &fakePages{next: func(n int, _ any) (any, bool) { return n + 1, n == maxPages }}
	if _, err := f.scanner().collect(ctx); err == nil || !strings.Contains(err.Error(), "exceeds") || f.calls != maxPages {
		t.Errorf("an endless chain: %d pages read, error %v; want a failure after %d", f.calls, err, maxPages)
	}

	// Cancelled after the first page: no second is read.
	f = &fakePages{next: func(n int, _ any) (any, bool) { return n + 1, n == 3 }}
	s = f.scanner()
	cctx, cancel := context.WithCancel(ctx)
	s.Next(cctx)
	cancel()
	if s.Next(cctx) || !errors.Is(s.Err(), context.Canceled) || f.calls != 1 {
		t.Errorf("cancelled between pages: %d pages read, error %v; want one, and the context's error", f.calls, s.Err())
	}

	// Pages of no rows are read through and never handed out.
	f = &fakePages{rows: []int{2, 0, 0, 1, 0}, next: func(n int, _ any) (any, bool) { return n + 1, n == 4 }}
	s = f.scanner()
	pages = drain(ctx, s)
	if len(pages) != 2 || len(pages[0]) != 2 || len(pages[1]) != 1 || s.Err() != nil || f.calls != 5 {
		t.Errorf("pages of 2, 0, 0, 1 and 0 rows: handed out %v of %d read, error %v; want the 2 and the 1", pages, f.calls, s.Err())
	}

	// Close ends the chain where it stands.
	f = &fakePages{next: func(n int, _ any) (any, bool) { return n + 1, n == 3 }}
	s = f.scanner()
	s.Next(ctx)
	s.Close()
	if s.Next(ctx) || s.Err() != nil || f.calls != 1 {
		t.Errorf("closed after the first page: %d pages read, error %v; want one, and no error", f.calls, s.Err())
	}
}

// TestPairsTuplesDoNotShareCapacity: {key, value} tuples are carved two
// cells at a time out of one chunk, so what follows a tuple's items in
// memory is the next row. An append to a tuple's Items() must copy.
func TestPairsTuplesDoNotShareCapacity(t *testing.T) {
	var p pairs
	rows := make([]iql.Value, 40) // crosses the first chunk
	for i := range rows {
		rows[i] = p.tuple(iql.Int(int64(i)), iql.Str("v"))
	}
	for i, row := range rows {
		if got := row.Items(); len(got) != 2 || cap(got) != 2 {
			t.Fatalf("row %d: Items() has len %d cap %d, want 2 and 2", i, len(got), cap(got))
		}
		_ = append(row.Items(), iql.Str("intruder"))
	}
	for i, row := range rows {
		if k := row.Items()[0]; k.Kind != iql.KindInt || k.I() != int64(i) {
			t.Fatalf("row %d reads %s after appends to its neighbours", i, row)
		}
	}
}
