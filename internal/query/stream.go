package query

import (
	"context"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// The streaming side of evaluation. When a generator source resolves —
// directly or through bare renames — to one object of a paging
// provider, the session asks read for it in readStream mode and hands
// the evaluator the RowStream it gets back, so peak memory for a scan
// over an N-row extent is bounded by the scan buffer, not by N.
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
// Processor.ScanBuffer is unset: both the spill threshold below which
// extents are materialised and cached as before, and the capacity of
// the prefetching buffer between the scanner and the evaluator.
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
	r, deps, ok := s.p.chase(s.scope(), parts, s.depLog)
	if !ok {
		return nil, false, nil
	}
	x, err := s.p.read(s.ctx, r.src, r.sc, readStream)
	if err != nil || x.rows == nil {
		return nil, false, nil
	}
	// Committed to streaming: keep the dependency keys the materialised
	// resolution of the same chain would have recorded.
	s.depLog = deps
	return x.rows, true, nil
}

// sourceStream is the iql.RowStream the evaluator consumes: the spill
// probe's rows first, then rows pumped from the scanner through a
// bounded channel by a prefetch goroutine. At most prefix+channel
// capacity rows are resident at once.
type sourceStream struct {
	prefix []iql.Value
	i      int
	ch     chan iql.Value
	cur    iql.Value

	// ferr is the pump's terminal error; it is written before ch is
	// closed, and the consumer reads it only after observing the close,
	// so the channel provides the happens-before edge.
	ferr error
	done chan struct{}

	cancel context.CancelFunc
	scn    wrapper.Scanner
	g      guard // opened by read around the scan; settled on termination or Close

	rows   int64
	err    error
	closed bool
}

// pump feeds the scanner's rows into the bounded channel until the
// scanner ends or the stream is cancelled.
func (st *sourceStream) pump(ctx context.Context) {
	var ferr error
loop:
	for st.scn.Next(ctx) {
		select {
		case st.ch <- st.scn.Row():
		case <-ctx.Done():
			ferr = ctx.Err()
			break loop
		}
	}
	if ferr == nil {
		ferr = st.scn.Err()
	}
	st.ferr = ferr
	close(st.ch)
	close(st.done)
}

func (st *sourceStream) Next() bool {
	if st.closed || st.err != nil {
		return false
	}
	if st.i < len(st.prefix) {
		st.cur = st.prefix[st.i]
		st.i++
		st.rows++
		return true
	}
	v, ok := <-st.ch
	if !ok {
		// The pump has exited: release the scanner, settle the outcome.
		st.err = st.ferr
		st.cancel()
		st.scn.Close()
		st.g.settle(nil, st.rows, st.ferr, false)
		st.prefix = nil
		return false
	}
	st.cur = v
	st.rows++
	return true
}

func (st *sourceStream) Row() iql.Value { return st.cur }

func (st *sourceStream) Err() error { return st.err }

// Close releases the stream at any point; it is idempotent and safe
// after exhaustion. Closing early cancels the pump, waits for it to
// exit, releases the scanner and settles the guard as walked away from:
// an abandoned scan says nothing about the source. (cancel, the
// scanner's Close and settle are idempotent, so after exhaustion this
// is a no-op.)
func (st *sourceStream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	st.cancel()
	<-st.done
	st.scn.Close()
	st.g.settle(nil, st.rows, nil, true)
	st.prefix = nil
	return nil
}
