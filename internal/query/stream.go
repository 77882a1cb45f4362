package query

import (
	"context"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// The streaming side of evaluation. When a generator source resolves —
// directly or through bare renames — to one object of a paging
// provider, the session asks read for it in readStream mode and hands
// the evaluator the RowStream it gets back. What moves from the backend
// to the evaluator is the backend's page, never a row at a time, and a
// scan over an N-row extent holds at most the scan buffer plus one
// backend page, whatever N is (see sourceStream).
//
// A count of a comprehension over such an object need not move rows at
// all: when the comprehension is an iql.Selection and the provider can
// have it counted at its backend (ExtentCount, readCount), one number
// crosses in place of the extent, and nothing is cached.
//
// Everything that relies on whole-extent values keeps its semantics
// byte-identically by materialising instead (ExtentStream returns
// ok=false and the evaluator calls Extent): cached extents, open
// breakers, computed virtual objects, ambiguous references, providers
// that do not page, snapshots (which go through Processor.Extent), and
// extents at or below the spill threshold, which read collects and
// caches exactly as a whole-extent fetch would have.

// ScanSourcer is the pull-based scan extension an extent provider may
// implement; it is wrapper.ScanSourcer re-exported so registering code
// can name it without importing the wrapper package.
type ScanSourcer = wrapper.ScanSourcer

// DefaultScanBufferRows is the streaming pipeline's row window when
// Processor.ScanBuffer is unset: the spill threshold at or below which
// an extent is materialised and cached as before, and so the most rows
// a scan holds before the evaluator starts walking them.
const DefaultScanBufferRows = 4096

// effectiveScanBuffer resolves the configured scan buffer: 0 means
// DefaultScanBufferRows, negative disables streaming entirely.
func (p *Processor) effectiveScanBuffer() int {
	switch {
	case p.ScanBuffer > 0:
		return p.ScanBuffer
	case p.ScanBuffer < 0:
		return 0
	}
	return DefaultScanBufferRows
}

// ExtentStream implements iql.StreamExtents. ok=false (with nil error)
// tells the evaluator to materialise through Extent instead, which owns
// error reporting and the stale route for unreachable sources.
func (s *session) ExtentStream(parts []string) (iql.RowStream, bool, error) {
	r, deps, ok := s.p.chase(s.addr, s.scope(), parts, s.depLog)
	if !ok || s.prefetched(r) || s.countFailed[r.src.object(r.sc.Key())] {
		return nil, false, nil
	}
	x, err := s.p.read(s.ctx, r.src, r.sc, readStream, nil)
	if err != nil || x.rows == nil {
		return nil, false, nil
	}
	// Committed to streaming: keep the dependency keys the materialised
	// resolution of the same chain would have recorded.
	s.depLog = deps
	return x.rows, true, nil
}

// ExtentCount implements iql.CountExtents: the reference is chased
// exactly as ExtentStream chases it, and the one source object it names
// is read in readCount mode. ok=false (with nil error) whenever that
// gives no number — the evaluator then counts here, over ExtentStream's
// rows or Extent's. A count the source was asked for and failed to give
// is remembered, so that the stream position skips its own attempt and
// the whole-extent read, which owns the stale route and the breaker
// verdict, is the second and last call the failing reference costs.
func (s *session) ExtentCount(parts []string, sel iql.Selection) (int64, bool, error) {
	r, deps, ok := s.p.chase(s.addr, s.scope(), parts, s.depLog)
	if !ok || s.prefetched(r) {
		return 0, false, nil
	}
	x, err := s.p.read(s.ctx, r.src, r.sc, readCount, &sel)
	if err != nil {
		if err != errNoRead {
			if s.countFailed == nil {
				s.countFailed = make(map[extentAddr]bool)
			}
			s.countFailed[r.src.object(r.sc.Key())] = true
		}
		return 0, false, nil
	}
	// The dependency keys are the ones a stream of the same chain keeps.
	s.depLog = deps
	return x.n, true, nil
}

// prefetched reports whether the query's prefetch read r's source
// object: the query counts and scans what it read, whatever the cache
// holds now.
func (s *session) prefetched(r resolution) bool {
	_, ok := s.warm[r.src.object(r.sc.Key())]
	return ok
}

// sourceStream is the iql.RowStream the evaluator consumes: the spill
// probe's pages first, then the scanner's, each asked for under the
// scan's context when the evaluator moves past the page before it and
// dropped once the evaluator has moved past it in turn. The most is
// resident when the evaluator starts: the probe — rows up to the scan
// buffer and the page that crossed it. Past the probe it is one page:
// the one the evaluator is walking, or the one the scanner is fetching
// while the evaluator waits. No goroutine is started: a page's round
// trip is the evaluator's.
type sourceStream struct {
	prefix [][]iql.Value
	cur    []iql.Value

	ctx    context.Context // the scan's: the guard's, cut by cancel
	cancel context.CancelFunc
	scn    wrapper.Scanner
	g      guard // opened by read around the scan; settled on termination or Close

	rows   int64 // rows of the pages handed to the evaluator so far
	err    error
	closed bool
}

func (st *sourceStream) Next() bool {
	if st.closed || st.err != nil {
		return false
	}
	if len(st.prefix) > 0 {
		st.cur, st.prefix[0] = st.prefix[0], nil
		st.prefix = st.prefix[1:]
	} else if st.cur = nil; st.scn.Next(st.ctx) {
		st.cur = st.scn.Page()
	} else {
		// The scanner has ended: release it, settle the outcome.
		st.err = st.scn.Err()
		st.cancel()
		st.scn.Close()
		st.g.settle(nil, st.rows, st.err, false)
		return false
	}
	st.rows += int64(len(st.cur))
	return true
}

func (st *sourceStream) Page() []iql.Value { return st.cur }

func (st *sourceStream) Err() error { return st.err }

// Close releases the stream at any point; it is idempotent and safe
// after exhaustion. Closing early releases the scanner and settles the
// guard as walked away from: an abandoned scan says nothing about the
// source. (cancel, the scanner's Close and settle are idempotent, so
// after exhaustion this is a no-op.)
func (st *sourceStream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	st.cancel()
	st.scn.Close()
	st.g.settle(nil, st.rows, nil, true)
	st.prefix, st.cur = nil, nil
	return nil
}
