package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// The golden files guard the snapshot wire format of the remote
// wrapper kinds introduced after core.SnapshotFormat 1 shipped: any
// accidental field rename, reordering, or encoding change of the "sql"
// and "rest" payloads shows up as a byte diff here. Regenerate
// deliberately with -update.

func goldenSQLWrapper(t *testing.T) *wrapper.SQL {
	t.Helper()
	db := rel.NewDB("GoldenSQL")
	books := db.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "title", Type: rel.String},
		{Name: "price", Type: rel.Float},
	}, "id")
	books.MustInsert(int64(1), "Dataspaces", 10.5)
	books.MustInsert(int64(1<<60+7), nil, nil)
	sqlmem.Register("golden-sql", db)
	w, err := wrapper.NewSQL("GoldenSQL", wrapper.SQLConfig{
		Driver:  sqlmem.DriverName,
		DSN:     "golden-sql",
		Dialect: wrapper.DialectSQLite,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// goldenTransport serves a fixed payload in-memory, keeping the REST
// golden bytes free of ephemeral ports.
type goldenTransport struct{}

func (goldenTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	body := `[{"id": 1, "title": "Dataspaces", "price": 10.5}, {"id": 1152921504606846983}]`
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(body)),
		Header:     make(http.Header),
		Request:    r,
	}, nil
}

func goldenRESTWrapper(t *testing.T) *wrapper.REST {
	t.Helper()
	w, err := wrapper.NewREST("GoldenREST", wrapper.RESTConfig{
		// Port 9 (discard) refuses connections instantly, so the
		// restored wrapper's fallback path is exercised without DNS or
		// timeout stalls.
		Endpoint:    "http://127.0.0.1:9/api",
		Timeout:     5 * time.Second,
		MaxBytes:    1 << 20,
		Collections: []wrapper.RESTCollection{{Name: "books", Fields: []string{"id", "price", "title"}}},
		Client:      &http.Client{Transport: goldenTransport{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func checkWrapperGolden(t *testing.T, snap *wrapper.Snapshot, file string) {
	t.Helper()
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot differs from %s — the %s wrapper snapshot format drifted:\n%s", golden, snap.Kind, got)
	}
	restoreGolden(t, want)
}

// restoreGolden checks, independently of today's encoder, that committed
// snapshot bytes keep restoring and that a re-snapshot of the restored
// wrapper reproduces them (the format loses nothing); it returns the
// restored wrapper.
func restoreGolden(t *testing.T, want []byte) wrapper.Wrapper {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.UseNumber()
	var decoded wrapper.Snapshot
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("golden file no longer decodes: %v", err)
	}
	restored, err := wrapper.Restore(&decoded)
	if err != nil {
		t.Fatalf("golden file no longer restores: %v", err)
	}
	again, err := restored.(wrapper.Snapshotter).Snapshot()
	if err != nil {
		t.Fatalf("re-snapshotting the restored wrapper: %v", err)
	}
	roundTripped, err := json.MarshalIndent(again, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(roundTripped, '\n'), want) {
		t.Errorf("Snapshot(Restore(golden)) differs from the golden bytes:\n%s", roundTripped)
	}
	return restored
}

func TestGoldenSnapshotSQLKind(t *testing.T) {
	w := goldenSQLWrapper(t)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checkWrapperGolden(t, snap, "golden_wrapper_sql.json")
}

// TestGoldenSnapshotSQLKindUntyped: golden_wrapper_sql_untyped.json is
// the SQL golden file as it was before a table snapshot carried "types",
// kept as a load-only fixture. It still restores and re-snapshots to its
// own bytes (no "types" appear from nowhere), and the wrapper it restores
// knows no column to be an integer: it has the source count only what
// compares nothing, where the wrapper restored from today's file goes on
// comparing the integer key there.
func TestGoldenSnapshotSQLKindUntyped(t *testing.T) {
	goldenSQLWrapper(t) // registers the backend both files name
	read := func(file string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	untyped := restoreGolden(t, read("golden_wrapper_sql_untyped.json")).(wrapper.CountSourcer)
	typed := restoreGolden(t, read("golden_wrapper_sql.json")).(wrapper.CountSourcer)
	all := iql.Selection{}
	onKey := iql.Selection{Conds: []iql.Cond{{Op: ">", Lit: 1}}}
	for _, tc := range []struct {
		name string
		w    wrapper.CountSourcer
		sel  iql.Selection
		want int64 // -1: declined
	}{
		{"untyped, no comparison", untyped, all, 2},
		{"untyped, key compared", untyped, onKey, -1},
		{"typed, no comparison", typed, all, 2},
		{"typed, key compared", typed, onKey, 1},
	} {
		count, ok := tc.w.ExtentCounter([]string{"books"}, tc.sel)
		if !ok {
			if tc.want >= 0 {
				t.Errorf("%s: declined, want %d", tc.name, tc.want)
			}
			continue
		}
		if n, err := count(context.Background()); err != nil || n != tc.want {
			t.Errorf("%s: count = %d, %v, want %d", tc.name, n, err, tc.want)
		}
	}
}

func TestGoldenSnapshotRESTKind(t *testing.T) {
	w := goldenRESTWrapper(t)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checkWrapperGolden(t, snap, "golden_wrapper_rest.json")
}
