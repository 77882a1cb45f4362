package wrapper_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

var sqlTestDSN atomic.Int64

func newSQLFixture(t *testing.T, dialect string) (*wrapper.SQL, string) {
	t.Helper()
	dsn := fmt.Sprintf("sqltest-%d", sqlTestDSN.Add(1))
	sqlmem.Register(dsn, conformanceDB())
	w, err := wrapper.NewSQL("S", wrapper.SQLConfig{
		Driver:  sqlmem.DriverName,
		DSN:     dsn,
		Dialect: dialect,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, dsn
}

func TestSQLIntrospection(t *testing.T) {
	for _, dialect := range []string{wrapper.DialectSQLite, wrapper.DialectInformationSchema} {
		t.Run(dialect, func(t *testing.T) {
			w, _ := newSQLFixture(t, dialect)
			// 2 tables + 4 + 2 columns.
			if w.Schema().Len() != 8 {
				t.Errorf("schema objects = %d, want 8:\n%s", w.Schema().Len(), w.Schema().Describe())
			}
			obj, err := w.Schema().Resolve([]string{"books", "title"})
			if err != nil {
				t.Fatal(err)
			}
			if obj.Kind != hdm.Link || obj.Model != "sql" || obj.Construct != "column" {
				t.Errorf("column object = %+v", obj)
			}
		})
	}
}

func TestSQLExtents(t *testing.T) {
	w, _ := newSQLFixture(t, wrapper.DialectSQLite)
	// Table extent: bag of primary keys, int64-exact.
	v, err := w.Extent([]string{"books"})
	if err != nil {
		t.Fatal(err)
	}
	want := iql.Bag(iql.Int(1), iql.Int(2), iql.Int(1<<60+7))
	if !v.Equal(want) {
		t.Errorf("books extent = %s, want %s", v, want)
	}
	// Column extent: {key, value} pairs, NULLs absent.
	v, err = w.Extent([]string{"books", "title"})
	if err != nil {
		t.Fatal(err)
	}
	want = iql.Bag(
		iql.Tuple(iql.Int(1), iql.Str("Dataspaces")),
		iql.Tuple(iql.Int(1<<60+7), iql.Str("Precision")),
	)
	if !v.Equal(want) {
		t.Errorf("title extent = %s, want %s", v, want)
	}
	// Bool and float columns map losslessly.
	v, err = w.Extent([]string{"books", "instock"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(iql.Bag(iql.Tuple(iql.Int(1), iql.Bool(true)), iql.Tuple(iql.Int(2), iql.Bool(false)))) {
		t.Errorf("instock extent = %s", v)
	}
}

func TestSQLContextCancellationMidQuery(t *testing.T) {
	w, dsn := newSQLFixture(t, wrapper.DialectSQLite)
	sqlmem.SetDelay(dsn, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := w.ExtentContext(ctx, []string{"books"})
	if err == nil {
		t.Fatal("fetch against a slow backend ignored its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the fetch was not interrupted", elapsed)
	}
}

// TestSQLOfflineRestoreServesFallback: a restored wrapper whose backend
// is gone does not pass its snapshot extent off as a fetch — Extent is
// the fetch's error — and holds it for the caller that asks for a stale
// one (FallbackExtent) and for the next snapshot.
func TestSQLOfflineRestoreServesFallback(t *testing.T) {
	w, dsn := newSQLFixture(t, wrapper.DialectSQLite)
	want, err := w.Extent([]string{"books", "title"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a restored daemon whose backend is gone.
	sqlmem.Unregister(dsn)
	restored, err := wrapper.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	assertHeldNotServed(t, restored, snap, want, dsn)
	// So does a binary that lacks the driver: the wrapper restores, and
	// every fetch says why it cannot be made.
	snap.SQL.Driver = "no-such-driver"
	if restored, err = wrapper.Restore(snap); err != nil {
		t.Fatal(err)
	}
	assertHeldNotServed(t, restored, snap, want, "no-such-driver")
	// The original wrapper has no fallback: losing the backend is an
	// error for it too, and so is its snapshot.
	if _, err := w.Extent([]string{"books", "title"}); err == nil {
		t.Error("live wrapper with a vanished backend succeeded")
	}
	if _, err := w.Snapshot(); err == nil {
		t.Error("snapshot of a live wrapper with a vanished backend succeeded")
	}
}

// assertHeldNotServed checks a wrapper restored from snap while its
// backend (named by backend in the fetch's error) is unreachable: Extent
// fails, FallbackExtent serves want, the <<books, title>> extent snap
// was taken with, and Snapshot re-emits snap.
func assertHeldNotServed(t *testing.T, restored wrapper.Wrapper, snap *wrapper.Snapshot, want iql.Value, backend string) {
	t.Helper()
	parts := []string{"books", "title"}
	if v, err := restored.Extent(parts); err == nil {
		t.Errorf("Extent of a restored wrapper with its backend gone = %s, want the fetch's error", v)
	} else if !strings.Contains(err.Error(), backend) {
		t.Errorf("Extent error %q does not name the backend %q", err, backend)
	}
	held, ok := restored.(interface {
		FallbackExtent([]string) (iql.Value, bool)
	}).FallbackExtent(parts)
	if !ok || !held.Equal(want) {
		t.Errorf("FallbackExtent = %s, %v; want the snapshot's %s", held, ok, want)
	}
	again, err := restored.(wrapper.Snapshotter).Snapshot()
	if err != nil {
		t.Fatalf("snapshot during the outage: %v", err)
	}
	wantDoc, _ := json.Marshal(snap)
	if got, _ := json.Marshal(again); !bytes.Equal(got, wantDoc) {
		t.Errorf("snapshot during the outage differs from the one restored from:\n got %s\nwant %s", got, wantDoc)
	}
}

func TestSQLConstructionErrors(t *testing.T) {
	if _, err := wrapper.NewSQL("", wrapper.SQLConfig{Driver: "x", DSN: "y"}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName}); err == nil {
		t.Error("missing DSN accepted")
	}
	if _, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: "x", Dialect: "oracle"}); err == nil {
		t.Error("unknown dialect accepted")
	}
	if _, err := wrapper.NewSQL("S", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: "never-registered"}); err == nil {
		t.Error("unregistered DSN accepted")
	}
}

func TestRestoreUnknownKindNamesKinds(t *testing.T) {
	_, err := wrapper.Restore(&wrapper.Snapshot{Kind: "alien", Name: "x"})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"alien"`) {
		t.Errorf("error %q does not name the offending kind", msg)
	}
	for _, kind := range wrapper.RestoreKinds() {
		if !strings.Contains(msg, kind) {
			t.Errorf("error %q does not list registered kind %q", msg, kind)
		}
	}
	if want := "fault, relational, rest, sql, static"; strings.Join(wrapper.RestoreKinds(), ", ") != want {
		t.Errorf("RestoreKinds() = %v, want %s", wrapper.RestoreKinds(), want)
	}
}
