package wrapper

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"github.com/dataspace/automed/internal/iql"
)

// Scanner streams one object's extent page by page. It is the pull-based
// alternative to Wrapper.Extent: callers drive the iteration, so only a
// bounded window of the extent is resident at a time, which is what
// lets one daemon host million-row remote tables with flat memory.
//
// The unit of the protocol is the backend's page, not the row: Next
// advances to the next non-empty page (one round trip to the backend,
// more when a page decodes to no rows) and reports false at the end of
// the extent or on error; Page returns that page's rows after a true
// Next. The slice is the caller's to keep: the scanner never writes to
// it again, so handing a page on costs nothing per row. Err
// distinguishes exhaustion from failure after Next returns false; Close
// releases backend resources and is safe to call at any point,
// including mid-stream, after which Next is false. Next observes ctx,
// so a cancelled request abandons the remaining pages instead of
// draining them.
//
// A Scanner is single-use and not safe for concurrent use.
type Scanner interface {
	Next(ctx context.Context) bool
	Page() []iql.Value
	Err() error
	Close() error
}

// ScanSourcer is the streaming extension of a wrapper: ExtentScanner
// returns a Scanner over the extent of the object referenced by parts.
// Every wrapper in this package implements it; wrappers over remote
// backends (SQL, REST) stream pages from the wire, while local wrappers
// serve their materialised extents as one page. The pages concatenate
// to exactly the rows Extent would return, in the same order — the
// conformance suite enforces this byte-for-byte.
type ScanSourcer interface {
	ExtentScanner(ctx context.Context, parts []string) (Scanner, error)
}

// CountSourcer is the counting extension of a wrapper whose backend has
// a query language of its own: ExtentCounter prepares the count of the
// rows of parts' extent that sel keeps, to be taken by the backend in
// place of the rows crossing over to be counted. Preparing asks nothing
// of the backend; the returned function does, once, under the context
// it is given. ok=false declines: the wrapper cannot promise the number
// the evaluator would reach by scanning — a shape or a column type it
// does not answer for — and the caller scans as if it had not asked.
type CountSourcer interface {
	ExtentCounter(parts []string, sel iql.Selection) (count func(ctx context.Context) (int64, error), ok bool)
}

// pageFunc reads the page of an extent that starts at cursor — nil for
// the first — and appends its rows to items, allocating them when items
// is nil; a page may decode to no rows. next is where the page after it
// starts; done says there is none.
type pageFunc func(ctx context.Context, cursor any, items []iql.Value) (_ []iql.Value, next any, done bool, err error)

// maxPages bounds how many pages one scan reads; a chain this long is a
// misbehaving (or cyclic) backend.
const maxPages = 10000

// pagedScanner is the one page loop of the wrappers, over the page
// function each supplies: REST's cursor is the next page's URL, SQL's
// the key of the last row scanned, and a materialised extent is one
// page. As a Scanner it hands out one non-empty page at a time; collect
// reads a whole extent. Either way it checks the context before each
// page, stops at maxPages, and fails when a page does not advance the
// cursor — a next link to itself, a backend that ignores the key it was
// sent — or sends it back to the start, where it would otherwise loop.
// Every error goes through wrap, which says what was being read.
type pagedScanner struct {
	page   pageFunc
	wrap   func(error) error
	cursor any
	pages  int
	done   bool
	rows   []iql.Value
	err    error
}

// fetch reads the next page, appending its rows to items.
func (s *pagedScanner) fetch(ctx context.Context, items []iql.Value) ([]iql.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, s.wrap(err)
	}
	if s.pages == maxPages {
		return nil, s.wrap(fmt.Errorf("pagination exceeds %d pages", maxPages))
	}
	items, next, done, err := s.page(ctx, s.cursor, items)
	if err != nil {
		return nil, s.wrap(err)
	}
	s.pages++
	// A driver's []byte key is no operand of ==; a nil one is the start.
	if !done && (next == nil || reflect.DeepEqual(next, s.cursor)) {
		return nil, s.wrap(fmt.Errorf("page %d did not advance the cursor %v: its next link points at itself, the backend ignores the cursor, or a key is NULL", s.pages, next))
	}
	s.cursor, s.done = next, done
	return items, nil
}

func (s *pagedScanner) Next(ctx context.Context) bool {
	for s.rows = nil; len(s.rows) == 0; {
		if s.done || s.err != nil {
			return false
		}
		s.rows, s.err = s.fetch(ctx, nil)
	}
	return true
}

func (s *pagedScanner) Page() []iql.Value { return s.rows }
func (s *pagedScanner) Err() error        { return s.err }

func (s *pagedScanner) Close() error {
	s.done, s.rows = true, nil
	return nil
}

// collect reads the rest of the extent as one bag.
func (s *pagedScanner) collect(ctx context.Context) (iql.Value, error) {
	var items []iql.Value
	for !s.done {
		var err error
		if items, err = s.fetch(ctx, items); err != nil {
			return iql.Value{}, err
		}
	}
	return iql.BagOf(items), nil
}

// pairChunkRows bounds how many {key, value} tuples share one backing
// array: large enough that a page costs a handful of allocations, small
// enough that one retained row pins kilobytes, not a page. It is 8 KiB
// of cells — two 32-byte Values a row — less one row: Go 1.24's
// allocator puts an 8-byte header before an array of pointers, and
// 8 KiB plus a header comes from its 9.25 KiB size class (108.6 bytes
// a streamed row where this reads 98.1). That is the runtime's business
// and may move with a release; the bound on bytes per row in
// TestSQLPageAllocations and TestRESTPageAllocations is what says so.
const pairChunkRows = 8<<10/(2*32) - 1

// pairs builds the {key, value} tuples of a link object's extent, their
// cells carved out of shared backing arrays instead of one two-element
// slice per row. Chunks start small and double up to pairChunkRows, so
// a ten-row extent does not pin a full chunk either.
type pairs struct {
	cells []iql.Value
}

func (p *pairs) tuple(k, v iql.Value) iql.Value {
	n := len(p.cells)
	if n+2 > cap(p.cells) {
		p.cells = make([]iql.Value, 0, min(max(2*cap(p.cells), 16), 2*pairChunkRows))
		n = 0
	}
	p.cells = append(p.cells, k, v)
	return iql.Tuple(p.cells[n : n+2 : n+2]...)
}

// materialisedScanner serves a wrapper's extent through the Scanner
// interface by fetching it whole first, as the one page of its chain. It
// is how wrappers whose backends cannot page (in-memory tables, parsed
// documents) satisfy ScanSourcer.
func materialisedScanner(w Wrapper, parts []string) (Scanner, error) {
	v, err := w.Extent(parts)
	if err != nil {
		return nil, err
	}
	els, err := v.Elements()
	if err != nil {
		return nil, fmt.Errorf("wrapper: %s: extent of <<%s>> is not a collection: %w",
			w.SchemaName(), strings.Join(parts, ", "), err)
	}
	return &pagedScanner{
		page: func(context.Context, any, []iql.Value) ([]iql.Value, any, bool, error) { return els, nil, true, nil },
		wrap: func(err error) error { return err },
	}, nil
}

// ExtentScanner implements ScanSourcer over the in-memory database.
func (w *Relational) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return materialisedScanner(w, parts)
}

// ExtentScanner implements ScanSourcer over the fixed extents.
func (w *Static) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return materialisedScanner(w, parts)
}
