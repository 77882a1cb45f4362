package wrapper

import (
	"context"
	"fmt"
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

// sliceScanner serves a materialised extent as its single page.
type sliceScanner struct {
	items  []iql.Value
	served bool
	err    error
}

// NewSliceScanner returns a Scanner over an already-materialised row
// slice. Local wrappers (relational, static, XML) use it to satisfy
// ScanSourcer, and remote ones when they do not page.
func NewSliceScanner(items []iql.Value) Scanner {
	return &sliceScanner{items: items}
}

func (s *sliceScanner) Next(ctx context.Context) bool {
	if s.served || s.err != nil || len(s.items) == 0 {
		return false
	}
	if s.err = ctx.Err(); s.err != nil {
		return false
	}
	s.served = true
	return true
}

func (s *sliceScanner) Page() []iql.Value { return s.items }
func (s *sliceScanner) Err() error        { return s.err }
func (s *sliceScanner) Close() error {
	s.served, s.items = true, nil
	return nil
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
// interface by fetching it whole first. It is how wrappers whose
// backends cannot page (in-memory tables, parsed documents) satisfy
// ScanSourcer.
func materialisedScanner(w Wrapper, ctx context.Context, parts []string) (Scanner, error) {
	var v iql.Value
	var err error
	if cw, ok := w.(interface {
		ExtentContext(ctx context.Context, parts []string) (iql.Value, error)
	}); ok {
		v, err = cw.ExtentContext(ctx, parts)
	} else {
		v, err = w.Extent(parts)
	}
	if err != nil {
		return nil, err
	}
	els, err := v.Elements()
	if err != nil {
		return nil, fmt.Errorf("wrapper: %s: extent of <<%s>> is not a collection: %w",
			w.SchemaName(), strings.Join(parts, ", "), err)
	}
	return NewSliceScanner(els), nil
}

// ExtentScanner implements ScanSourcer over the in-memory database.
func (w *Relational) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return materialisedScanner(w, ctx, parts)
}

// ExtentScanner implements ScanSourcer over the fixed extents.
func (w *Static) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return materialisedScanner(w, ctx, parts)
}
