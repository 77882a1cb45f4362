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

// Selection is what a comprehension keeps of its one generator's
// extent, in a form a source can evaluate in its own query language:
// the shape the pattern asks of an element and a conjunction of integer
// comparisons on the element's components. count of such a
// comprehension is the number of elements the Selection keeps, whatever
// its head builds from them.
type Selection struct {
	// Arity is the pattern's tuple arity: only tuples of exactly that
	// many components are kept. 0 is a bare variable (or "_"), which
	// takes every element whole.
	Arity int
	// Conds all hold of a kept element.
	Conds []Cond
}

// Cond is one comparison "component Op Lit", ordered as Value.Compare
// orders: a component that is not a number keeps nothing a source may
// count — comparing it fails the query here — so a provider answers
// only where it knows the component to be an integer.
type Cond struct {
	// Comp is the compared component's position in the tuple; under a
	// bare-variable pattern (Arity 0) it is 0 and names the element.
	Comp int
	// Op is one of "=", "<", "<=", ">", ">=".
	Op  string
	Lit int64
}

// CountExtents is the counting extension of Extents: ExtentCount
// reports how many elements of the referenced object's extent sel
// keeps, when the provider can have them counted where the extent lives
// and the number is exactly the one counting here would give. ok=false
// (with nil error) means nothing was learnt, and the caller evaluates
// as if it had not asked — through ExtentStream or Extents.Extent,
// which own error reporting.
type CountExtents interface {
	Extents
	ExtentCount(parts []string, sel Selection) (n int64, ok bool, err error)
}
