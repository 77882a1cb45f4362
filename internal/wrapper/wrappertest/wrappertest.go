// Package wrappertest is the executable contract of the
// wrapper.Wrapper interface: Run drives any wrapper through the full
// set of behaviours the query processor, the prefetch pool, and the
// persistence layer rely on. Every backend — in-memory or remote —
// runs the same suite, so a new wrapper starts from a passing contract
// instead of folklore.
//
// The asserted contract:
//
//   - the wrapper names a schema and serves an extent, without error,
//     for every object the schema declares; extents are bags, and link
//     objects yield bags of {key, value} pairs;
//   - extents are deterministic: repeated fetches of the same object
//     are equal;
//   - unknown objects produce errors, never panics;
//   - Extent is safe for concurrent use (the prefetch pool fetches in
//     parallel) — run the suite under -race;
//   - context-aware wrappers (wrapper.ContextWrapper) honour an
//     already-cancelled context;
//   - serialisable wrappers (wrapper.Snapshotter) survive a snapshot →
//     JSON → restore round trip with an identical schema, byte-
//     identical extents, and a byte-identical re-snapshot;
//   - scanning wrappers (wrapper.ScanSourcer) serve every extent
//     through a scanner whose pages concatenate byte-identically to
//     Extent, in the same order on every scan (page boundaries must not
//     perturb it); no page is empty, a page handed out is never written
//     to again, and they release their resources on mid-stream
//     cancellation.
package wrappertest

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// Factory builds a fresh wrapper for one subtest. Factories are called
// several times per Run, so each call must yield an independent but
// identically-populated wrapper.
type Factory func(t *testing.T) wrapper.Wrapper

// ContextWrapper is the context-aware fetch extension some wrappers
// implement (mirrors query.ContextSourcer without importing it, to
// keep the dependency arrow pointing wrapper ← query).
type ContextWrapper interface {
	ExtentContext(ctx context.Context, parts []string) (iql.Value, error)
}

// Run executes the wrapper conformance suite against factory.
func Run(t *testing.T, factory Factory) {
	t.Run("SchemaAgreement", func(t *testing.T) { testSchemaAgreement(t, factory(t)) })
	t.Run("DeterministicExtents", func(t *testing.T) { testDeterministic(t, factory(t)) })
	t.Run("UnknownObject", func(t *testing.T) { testUnknownObject(t, factory(t)) })
	t.Run("ConcurrentExtent", func(t *testing.T) { testConcurrent(t, factory(t)) })
	t.Run("ContextCancellation", func(t *testing.T) { testContextCancellation(t, factory(t)) })
	t.Run("SnapshotRestore", func(t *testing.T) { testSnapshotRestore(t, factory(t)) })
	t.Run("ScannerMatchesExtent", func(t *testing.T) { testScannerMatchesExtent(t, factory(t)) })
	t.Run("ScannerDeterminism", func(t *testing.T) { testScannerDeterminism(t, factory(t)) })
	t.Run("ScannerPages", func(t *testing.T) { testScannerPages(t, factory(t)) })
	t.Run("ScannerCancellation", func(t *testing.T) { testScannerCancellation(t, factory(t)) })
}

// testSchemaAgreement checks the schema and the extent server agree:
// every declared object is fetchable and shaped by its kind.
func testSchemaAgreement(t *testing.T, w wrapper.Wrapper) {
	if w.SchemaName() == "" {
		t.Error("SchemaName() is empty")
	}
	schema := w.Schema()
	if schema == nil {
		t.Fatal("Schema() returned nil")
	}
	if schema.Name() != w.SchemaName() {
		t.Errorf("schema is named %q, wrapper %q", schema.Name(), w.SchemaName())
	}
	if schema.Len() == 0 {
		t.Fatal("schema declares no objects; the suite needs a populated source")
	}
	for _, o := range schema.Objects() {
		v, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Errorf("Extent(%s): %v", o.Scheme, err)
			continue
		}
		if v.Kind != iql.KindBag {
			t.Errorf("Extent(%s) is %s, want a bag", o.Scheme, v.Kind)
			continue
		}
		if o.Kind == hdm.Link {
			for _, it := range v.Items() {
				if it.Kind != iql.KindTuple || len(it.Items()) != 2 {
					t.Errorf("Extent(%s) element %s is not a {key, value} pair", o.Scheme, it)
					break
				}
			}
		}
	}
}

// testDeterministic checks repeated fetches agree, object by object.
func testDeterministic(t *testing.T, w wrapper.Wrapper) {
	for _, o := range w.Schema().Objects() {
		first, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatalf("Extent(%s): %v", o.Scheme, err)
		}
		second, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatalf("second Extent(%s): %v", o.Scheme, err)
		}
		if !first.Equal(second) {
			t.Errorf("Extent(%s) is not deterministic: %s then %s", o.Scheme, first, second)
		}
	}
}

// testUnknownObject checks resolution failures are errors, not panics.
func testUnknownObject(t *testing.T, w wrapper.Wrapper) {
	if _, err := w.Extent([]string{"no-such-object-d41d8cd9"}); err == nil {
		t.Error("Extent of an unknown object succeeded")
	}
	// An empty reference is a degenerate scheme; it may resolve (the
	// empty scheme is a suffix of everything) or error, but never panic.
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Extent(nil) panicked: %v", r)
			}
		}()
		_, _ = w.Extent(nil)
	}()
}

// testConcurrent hammers every object from several goroutines and
// compares against a serial baseline; meaningful under -race.
func testConcurrent(t *testing.T, w wrapper.Wrapper) {
	objs := w.Schema().Objects()
	baseline := make([]iql.Value, len(objs))
	for i, o := range objs {
		v, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatalf("Extent(%s): %v", o.Scheme, err)
		}
		baseline[i] = v
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range objs {
				v, err := w.Extent(o.Scheme.Parts())
				if err != nil {
					errs <- err
					return
				}
				if !v.Equal(baseline[i]) {
					errs <- &mismatchError{scheme: o.Scheme}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Extent: %v", err)
	}
}

type mismatchError struct{ scheme hdm.Scheme }

func (e *mismatchError) Error() string {
	return "extent of " + e.scheme.String() + " diverged from the serial baseline"
}

// testContextCancellation checks context-aware wrappers refuse an
// already-cancelled context; wrappers without the extension skip.
func testContextCancellation(t *testing.T, w wrapper.Wrapper) {
	cw, ok := w.(ContextWrapper)
	if !ok {
		t.Skipf("%T does not implement ExtentContext", w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range w.Schema().Objects() {
		if _, err := cw.ExtentContext(ctx, o.Scheme.Parts()); err == nil {
			t.Errorf("ExtentContext(%s) with a cancelled context succeeded", o.Scheme)
		}
		break // one object suffices
	}
}

// drainScanner concatenates the pages of a fresh scanner for one
// object.
func drainScanner(t *testing.T, ss wrapper.ScanSourcer, sc hdm.Scheme) []iql.Value {
	t.Helper()
	ctx := context.Background()
	scn, err := ss.ExtentScanner(ctx, sc.Parts())
	if err != nil {
		t.Fatalf("ExtentScanner(%s): %v", sc, err)
	}
	var rows []iql.Value
	for scn.Next(ctx) {
		if len(scn.Page()) == 0 {
			t.Errorf("scanner over %s served an empty page after %d rows", sc, len(rows))
		}
		rows = append(rows, scn.Page()...)
	}
	if err := scn.Err(); err != nil {
		t.Fatalf("scanner over %s failed: %v", sc, err)
	}
	if err := scn.Close(); err != nil {
		t.Errorf("Close after scanning %s: %v", sc, err)
	}
	return rows
}

// testScannerMatchesExtent checks the scanner protocol serves every
// object byte-identically to the materialised Extent; wrappers without
// the extension skip.
func testScannerMatchesExtent(t *testing.T, w wrapper.Wrapper) {
	ss, ok := w.(wrapper.ScanSourcer)
	if !ok {
		t.Skipf("%T does not implement ExtentScanner", w)
	}
	for _, o := range w.Schema().Objects() {
		want, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatalf("Extent(%s): %v", o.Scheme, err)
		}
		got := iql.BagOf(drainScanner(t, ss, o.Scheme))
		wantJSON, err := json.Marshal(iql.EncodeValue(want))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(iql.EncodeValue(got))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("scanned extent of %s is not byte-identical to Extent:\n%s\nvs\n%s", o.Scheme, gotJSON, wantJSON)
		}
	}
	// A scanner over an unknown object must fail (at open or on first
	// advance), never panic.
	if scn, err := ss.ExtentScanner(context.Background(), []string{"no-such-object-d41d8cd9"}); err == nil {
		if scn.Next(context.Background()) {
			t.Error("scanner over an unknown object produced a row")
		}
		if scn.Err() == nil {
			t.Error("scanner over an unknown object reported no error")
		}
		_ = scn.Close()
	}
}

// testScannerDeterminism checks two independent scans of the same
// object yield the same rows in the same order — page boundaries and
// refetches must not perturb the sequence.
func testScannerDeterminism(t *testing.T, w wrapper.Wrapper) {
	ss, ok := w.(wrapper.ScanSourcer)
	if !ok {
		t.Skipf("%T does not implement ExtentScanner", w)
	}
	for _, o := range w.Schema().Objects() {
		first := drainScanner(t, ss, o.Scheme)
		second := drainScanner(t, ss, o.Scheme)
		if len(first) != len(second) {
			t.Errorf("scans of %s disagree on length: %d then %d", o.Scheme, len(first), len(second))
			continue
		}
		for i := range first {
			if !first[i].Equal(second[i]) {
				t.Errorf("scans of %s diverge at row %d: %s then %s", o.Scheme, i, first[i], second[i])
				break
			}
		}
	}
}

// testScannerPages checks a page belongs to whoever took it: the first
// page of every object reads the same after the scan has run to its end
// and been closed as it did when it was handed out. A closed scanner
// serves nothing more.
func testScannerPages(t *testing.T, w wrapper.Wrapper) {
	ss, ok := w.(wrapper.ScanSourcer)
	if !ok {
		t.Skipf("%T does not implement ExtentScanner", w)
	}
	ctx := context.Background()
	for _, o := range w.Schema().Objects() {
		scn, err := ss.ExtentScanner(ctx, o.Scheme.Parts())
		if err != nil {
			t.Fatalf("ExtentScanner(%s): %v", o.Scheme, err)
		}
		if !scn.Next(ctx) {
			if err := scn.Err(); err != nil {
				t.Fatalf("scanner over %s failed: %v", o.Scheme, err)
			}
			_ = scn.Close()
			continue // an empty extent has no pages
		}
		first := scn.Page()
		before := iql.BagOf(first).String()
		pages := 1
		for scn.Next(ctx) {
			pages++
		}
		if err := scn.Err(); err != nil {
			t.Fatalf("scanner over %s failed: %v", o.Scheme, err)
		}
		if err := scn.Close(); err != nil {
			t.Errorf("Close after scanning %s: %v", o.Scheme, err)
		}
		if after := iql.BagOf(first).String(); after != before {
			t.Errorf("first page of %s changed while the other %d were served:\n%s\nthen\n%s", o.Scheme, pages-1, before, after)
		}
		if scn.Next(ctx) {
			t.Errorf("Next over %s succeeded after Close", o.Scheme)
		}
	}
}

// testScannerCancellation checks cancellation stops a scan promptly
// and that Close mid-stream releases the scanner cleanly.
func testScannerCancellation(t *testing.T, w wrapper.Wrapper) {
	ss, ok := w.(wrapper.ScanSourcer)
	if !ok {
		t.Skipf("%T does not implement ExtentScanner", w)
	}
	objs := w.Schema().Objects()
	sc := objs[0].Scheme

	// A context cancelled before the first advance: the scanner either
	// refuses to open or stops before producing a page.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if scn, err := ss.ExtentScanner(ctx, sc.Parts()); err == nil {
		if scn.Next(ctx) {
			t.Error("Next succeeded under an already-cancelled context")
		}
		if scn.Err() == nil {
			t.Error("Err() is nil after a cancelled scan")
		}
		if err := scn.Close(); err != nil {
			t.Errorf("Close after cancellation: %v", err)
		}
	}

	// Close mid-stream (after at most one row) must succeed and make
	// further advances return false.
	lctx := context.Background()
	scn, err := ss.ExtentScanner(lctx, sc.Parts())
	if err != nil {
		t.Fatalf("ExtentScanner(%s): %v", sc, err)
	}
	scn.Next(lctx)
	if err := scn.Close(); err != nil {
		t.Errorf("mid-stream Close: %v", err)
	}
	if scn.Next(lctx) {
		t.Error("Next succeeded after Close")
	}
	if err := scn.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// testSnapshotRestore checks the full persistence contract; wrappers
// without a Snapshot hook skip.
func testSnapshotRestore(t *testing.T, w wrapper.Wrapper) {
	sn, ok := w.(wrapper.Snapshotter)
	if !ok {
		t.Skipf("%T does not implement Snapshotter", w)
	}
	if _, err := sn.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Through the document, as a session file does: Encode writes it,
	// Decode restores from it (int64 cells exact) and owns its bytes.
	doc, err := wrapper.Encode(w)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !json.Valid(doc) {
		t.Fatalf("Encode wrote invalid JSON:\n%s", doc)
	}
	var first bytes.Buffer
	if err := json.Compact(&first, doc); err != nil {
		t.Fatal(err)
	}
	firstJSON := first.Bytes()
	restored, err := wrapper.Decode(doc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if restored.SchemaName() != w.SchemaName() {
		t.Errorf("restored SchemaName = %q, want %q", restored.SchemaName(), w.SchemaName())
	}
	if !hdm.Identical(restored.Schema(), w.Schema()) {
		t.Fatalf("restored schema differs:\n%s\nvs\n%s", restored.Schema().Describe(), w.Schema().Describe())
	}
	for _, o := range w.Schema().Objects() {
		want, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatalf("Extent(%s): %v", o.Scheme, err)
		}
		got, err := restored.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatalf("restored Extent(%s): %v", o.Scheme, err)
		}
		// Byte-identical, not just Equal: the serialised form is what
		// downstream stores compare and cache.
		wantJSON, err := json.Marshal(iql.EncodeValue(want))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(iql.EncodeValue(got))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("restored extent of %s is not byte-identical:\n%s\nvs\n%s", o.Scheme, gotJSON, wantJSON)
		}
	}
	// Re-snapshotting the restored wrapper's state (not the document it
	// keeps) must reproduce the document token for token: restore loses
	// nothing the format records.
	rsn, ok := restored.(wrapper.Snapshotter)
	if !ok {
		t.Fatalf("restored wrapper %T lost its Snapshot hook", restored)
	}
	again, err := rsn.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	secondJSON, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstJSON, secondJSON) {
		t.Errorf("Snapshot(Decode(Encode(w))) differs:\n%s\nvs\n%s", secondJSON, firstJSON)
	}
}
