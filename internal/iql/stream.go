package iql

// RowStream is a pull-based extent, handed over a page at a time: Next
// advances to the next page of rows and reports false at the end or on
// failure, Page returns that page after a true Next (never empty, and
// the producer does not touch it again), Err distinguishes exhaustion
// from failure, and Close releases whatever the producer holds (it is
// safe to call at any point, including mid-stream). The evaluator
// consumes a stream through a comprehension generator, walking each
// page as it walks a materialised extent, so only the producer's
// buffering window is resident instead of the whole extent.
type RowStream interface {
	Next() bool
	Page() []Value
	Err() error
	Close() error
}

// StreamExtents is the streaming extension of Extents: ExtentStream
// serves an extent as a RowStream when streaming the referenced object
// is both possible and worthwhile, signalled by ok. An ok=false return
// (with nil error) means the caller should materialise through
// Extents.Extent instead — sources below the spill threshold, cached
// extents, and non-streaming wrappers all take that path, keeping
// their existing semantics byte-identical.
type StreamExtents interface {
	Extents
	ExtentStream(parts []string) (rs RowStream, ok bool, err error)
}
