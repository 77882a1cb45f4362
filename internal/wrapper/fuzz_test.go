package wrapper

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
)

// restDecodeSeeds adds the committed seed corpus (testdata/restdecode;
// `make fuzz-seeds` replays it as plain tests in CI) and a few
// adversarial shapes beyond what fits a readable file.
func restDecodeSeeds(f *testing.F) {
	dir := filepath.Join("testdata", "restdecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading seed corpus: %v", err)
	}
	if len(entries) == 0 {
		f.Fatal("empty seed corpus")
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(strings.Repeat(`[{"a":`, 200) + strings.Repeat("}]", 200)))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(`[{"id": 1e-9999}]`))
}

// FuzzRESTDecode asserts the REST extent decoder never panics on
// arbitrary payloads — malformed JSON, wrong-typed or nested fields,
// numbers beyond int64 and float64, NaN/Infinity tokens, truncation,
// trailing garbage — and that whatever it accepts is made of valid
// scalar values that survive the persistence codec.
func FuzzRESTDecode(f *testing.F) {
	restDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		infer := restDecoder{names: make(map[string]bool)}
		if _, err := infer.page(data, 1<<20, nil); err != nil {
			return
		}
		// Every field in turn as the key: accepted values must be
		// scalars that round-trip through the snapshot codec. (A field
		// some record lacks is refused as a key; the differential test
		// covers those.)
		for _, field := range infer.fields() {
			d := restDecoder{coll: "c", key: field}
			items, err := d.page(data, 1<<20, nil)
			if err != nil {
				continue
			}
			for i, v := range items {
				switch v.Kind {
				case iql.KindBool, iql.KindInt, iql.KindFloat, iql.KindString:
				default:
					t.Fatalf("record %d field %q decoded to non-scalar kind %s", i, field, v.Kind)
				}
				if _, err := iql.DecodeValue(iql.EncodeValue(v)); err != nil {
					t.Fatalf("record %d field %q does not survive the value codec: %v", i, field, err)
				}
			}
		}
	})
}

// FuzzRESTDecodeBudget pins the byte budget: the decoder must reject
// any document longer than the budget rather than buffer it — with no
// off-by-one at the boundary, so the decode budget agrees byte for
// byte with the HTTP body budget enforced by getBody.
func FuzzRESTDecodeBudget(f *testing.F) {
	const budget = 128
	f.Add([]byte(`[{"id": 1, "pad": "` + strings.Repeat("x", 256) + `"}]`))
	// Boundary seeds: exactly at the budget (must decode) and one byte
	// over (must fail) — the off-by-one regression case.
	f.Add([]byte(budgetDoc(budget)))
	f.Add([]byte(budgetDoc(budget + 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := restDecoder{coll: "c", key: "id"}
		// Every byte of the page counts, trailing whitespace included.
		if _, err := d.page(data, budget, nil); len(data) > budget && err == nil {
			t.Fatalf("%d-byte document decoded despite a %d-byte budget", len(data), budget)
		}
	})
}

// budgetDoc builds a valid one-record JSON array document of exactly n
// bytes (n must leave room for the fixed syntax).
func budgetDoc(n int) string {
	const frame = `[{"id":"` + `"}]`
	return `[{"id":"` + strings.Repeat("x", n-len(frame)) + `"}]`
}
