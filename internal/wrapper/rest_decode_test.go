package wrapper

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// checkAgainstReference decodes one page with the walker and with the
// reference decoder (rest_reference_test.go) and fails on any
// difference: accept or reject, the inferred field list, and the
// projected bag — byte for byte as the answer encoder would write it —
// of the nodal object and of every link object.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	const budget = 1 << 20
	if len(data) > budget {
		return
	}
	rows, refErr := refDecodeRows(bytes.NewReader(data), budget)
	infer := restDecoder{names: make(map[string]bool)}
	_, err := infer.page(data, budget, nil)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("page %q:\n  reference error: %v\n  walker error:    %v", data, refErr, err)
	}
	if refErr != nil {
		return
	}
	fields := refInferFields(rows)
	if got := infer.fields(); !slices.Equal(got, fields) {
		t.Fatalf("page %q: walker infers fields %q, reference %q", data, got, fields)
	}
	// The nodal object, then every field — and one no record has — as a
	// link object; under every field, "id" and a name no record has as
	// the key.
	type projection struct {
		pair  bool
		field string
	}
	projections := []projection{{}, {pair: true, field: "no-such-field"}}
	for _, f := range fields {
		projections = append(projections, projection{pair: true, field: f})
	}
	for _, key := range append(fields, "id", "no-such-field") {
		for _, p := range projections {
			want, refErr := refExtent("c", key, p.field, p.pair, rows)
			d := restDecoder{coll: "c", key: key, pair: p.pair, field: p.field}
			got, err := d.page(data, budget, nil)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("page %q key %q projection %+v:\n  reference error: %v\n  walker error:    %v",
					data, key, p, refErr, err)
			}
			if refErr != nil {
				if refErr.Error() != err.Error() {
					t.Fatalf("page %q key %q: missing-key error %q, reference %q", data, key, err, refErr)
				}
				continue
			}
			wantJSON, werr := json.Marshal(iql.EncodeValue(want))
			gotJSON, gerr := json.Marshal(iql.EncodeValue(iql.BagOf(got)))
			if werr != nil || gerr != nil {
				// A NaN or an infinity cannot come out of a JSON number.
				t.Fatalf("page %q: projection does not encode: %v / %v", data, werr, gerr)
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("page %q key %q projection %+v:\n  reference: %s\n  walker:    %s",
					data, key, p, wantJSON, gotJSON)
			}
		}
	}
}

// pageGen writes random pages: arrays of flat records over a small field
// vocabulary, so that duplicates, missing keys and null fields are
// common, with every spelling JSON allows. Unless clean is set they are
// seasoned with what a page must not hold — nested values, numbers no
// float64 can hold, elements that are not records, trailing data — at
// rates that let a page of a few records through about half the time;
// a clean page is accepted whatever its size, and each of its records
// has an "id".
type pageGen struct {
	r     *rand.Rand
	clean bool
	b     bytes.Buffer
}

var (
	// The first two spell "id".
	genNames = []string{`"id"`, `"\u0069d"`, `"f"`, `"f"`, `"\u0066"`, `"g"`, `"tag"`, `""`, `"f\u0000"`, `"é"`, "\"\xff\"", `"\ud800"`, `"a\"b"`, `"a\\b"`}
	genInts  = []string{"0", "-0", "1", "-1", "42", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "123456789012345678901234567890", strings.Repeat("9", 305)}
	genFloats = []string{"0.5", "-0.0", "1e3", "1E3", "1e+3", "1.5e-3", "1e-400", "1e-9999", "0." + strings.Repeat("0", 320) + "1",
		"1" + strings.Repeat("0", 300) + ".5", "1.7976931348623157e308"}
	genOverflows = []string{"1e400", "-1e400", "1.7976931348623159e308", strings.Repeat("9", 310), "1" + strings.Repeat("0", 310) + ".0"}
	genStrings   = []string{`""`, `"x"`, `"Dataspaces"`, `"a\"b"`, `"a\\b"`, `"\/"`, `"\b\f\n\r\t"`, `"\u2028"`, `"\u00e9"`, `"é"`, `"\ud83d\ude00"`,
		`"\ud800"`, `"\udc00x"`, `"\ud800\u0041"`, "\"\xff\xfe\"", "\"a\xc3\"", `"{[,:]}"`, `"\u0000"`, "\"\x7f\""}
	genNested  = []string{`{}`, `[]`, `{"deep": [1, 2]}`, `[{"a": "]"}]`, `[[["}"]]]`, `{"a": {"b": "\""}}`}
	genSpace   = []string{"", "", "", " ", "\n", "\t", "\r\n", "  "}
	genGarbage = []string{"", "", "", "", " ", "\n", "x", "]", "}", "[]", " {\"more\": true}", ",", "\x00", "null"}
)

func (g *pageGen) pick(from []string) { g.b.WriteString(from[g.r.IntN(len(from))]) }
func (g *pageGen) space()             { g.pick(genSpace) }

func (g *pageGen) value() {
	switch n := g.r.IntN(100); {
	case n < 30:
		g.pick(genInts)
	case n < 45:
		g.pick(genFloats)
	case n < 75:
		g.pick(genStrings)
	case n < 80:
		g.b.WriteString("true")
	case n < 85:
		g.b.WriteString("false")
	case n < 93:
		g.b.WriteString("null")
	case n < 96:
		g.b.WriteString(strconv.FormatInt(g.r.Int64()-g.r.Int64(), 10))
	case g.clean:
		g.b.WriteString(strconv.FormatFloat(g.r.NormFloat64(), 'g', -1, 64))
	case n < 98:
		g.pick(genNested)
	default:
		g.pick(genOverflows)
	}
}

func (g *pageGen) record() {
	g.b.WriteByte('{')
	g.space()
	members, names := g.r.IntN(6), genNames
	if g.clean {
		g.b.WriteString(`"id": ` + strconv.Itoa(g.r.IntN(1000)))
		members, names = members+1, genNames[2:]
	}
	for i := 0; i < members; i++ {
		if i > 0 || g.clean {
			g.b.WriteByte(',')
			g.space()
		}
		g.pick(names)
		g.space()
		g.b.WriteByte(':')
		g.space()
		g.value()
		g.space()
	}
	g.b.WriteByte('}')
}

// page writes one page of n records.
func (g *pageGen) page(n int) []byte {
	g.b.Reset()
	g.space()
	switch doc := g.r.IntN(40); {
	case g.clean || doc > 2:
		g.b.WriteByte('[')
		g.space()
		for i := 0; i < n; i++ {
			if i > 0 {
				g.b.WriteByte(',')
				g.space()
			}
			if !g.clean && g.r.IntN(60) == 0 {
				g.value() // an element that is not a record
			} else {
				g.record()
			}
			g.space()
		}
		g.b.WriteByte(']')
	case doc == 0:
		g.b.WriteString("null")
	case doc == 1:
		g.record()
	default:
		g.value()
	}
	if g.clean {
		g.space()
	} else {
		g.pick(genGarbage)
	}
	return bytes.Clone(g.b.Bytes())
}

// TestRESTDecodeMatchesReference holds the page walker to the decoder
// it replaced, on the committed seed corpus, the fuzz targets' own
// adversarial shapes and generated pages of 0, 1, a few and 500
// records.
func TestRESTDecodeMatchesReference(t *testing.T) {
	dir := filepath.Join("testdata", "restdecode")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("seed corpus: %v (%d files)", err, len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, data)
	}
	for _, page := range []string{
		strings.Repeat(`[{"a":`, 200) + strings.Repeat("}]", 200),
		"\x00\xff\xfe",
		`[{"id": 1e-9999}]`,
		`[{"id": 1}]]`,                              // More() alone would let the stray bracket pass
		`[{"id": 1, "f": {"x": 1}, "f": 2}]`,        // a later duplicate replaces a nested value
		`[{"id": 1, "f": 2, "f": [1]}]`,             // and the other way round it is an error
		`[{"id": 1, "f": 1e400, "\u0066": "fine"}]`, // the duplicate may be spelt with an escape
		`[{"id": 1, "id": null}]`,                   // the last key is the key
		`[{"g": [], "f": {}, "g": 1}, {"id": 2}]`,   // two pending members, one redeemed
		"[{\"\xff\": [], \"\xfe\": 1, \"id\": 1}]",  // invalid UTF-8 names are one name
		` [ { "id" : 1 , "f" : "x" } , { "id" : 2 } ] `,
	} {
		checkAgainstReference(t, []byte(page))
	}
	g := pageGen{r: rand.New(rand.NewPCG(15, 1))}
	for i := 0; i < 4000; i++ {
		g.clean = i%4 == 0
		checkAgainstReference(t, g.page([]int{0, 1, 1, 2, 3, 5, 8}[i%7]))
	}
	for i := 0; i < 6; i++ {
		g.clean = i > 0
		checkAgainstReference(t, g.page(500))
	}
}

// FuzzRESTProject is TestRESTDecodeMatchesReference with the fuzzer
// writing the pages.
func FuzzRESTProject(f *testing.F) {
	restDecodeSeeds(f)
	g := pageGen{r: rand.New(rand.NewPCG(15, 2))}
	for i := 0; i < 16; i++ {
		f.Add(g.page(i % 4))
	}
	f.Fuzz(checkAgainstReference)
}

// TestRESTDecodeErrorsNameTheRecordInTheCollection: a record of a later
// page that cannot be decoded is named by its place in the collection,
// as a record without its key is — not by its place in its page.
func TestRESTDecodeErrorsNameTheRecordInTheCollection(t *testing.T) {
	for _, tc := range []struct{ second, want string }{
		{`[{"id": 4, "val": 4}, {"id": 5, "val": [1]}]`, `record 4 field "val": unsupported JSON an array`},
		{`[{"id": 4, "val": 4}, 5]`, `record 4 is a number, not an object`},
		{`[{"id": 4, "val": 4}, {"val": 5}]`, `record 4 has no key field "id"`},
	} {
		d := restDecoder{coll: "c", key: "id", pair: true, field: "val"}
		if _, err := d.page([]byte(`[{"id": 1, "val": 1}, {"id": 2, "val": 2}, {"id": 3, "val": 3}]`), 1<<20, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := d.page([]byte(tc.second), 1<<20, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("second page %s: error %v, want %q", tc.second, err, tc.want)
		}
	}
}

// TestRESTPageAllocations: the fields a scan does not project are
// checked where they lie and cost no allocation, so a page of records
// with twelve of them decodes in exactly as many allocations as one
// with two — the page, the tuples' shared backing, and nothing per
// field. In bytes a record is its {key, value} row: two cells and a
// place in the page, three Values.
func TestRESTPageAllocations(t *testing.T) {
	page := func(records, extra int) (allocs, size float64) {
		var b bytes.Buffer
		b.WriteByte('[')
		for i := 0; i < records; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"id": ` + strconv.Itoa(i+1000) + `, "val": ` + strconv.Itoa(i%977))
			for f := 0; f < extra; f++ {
				b.WriteString(`, "x` + strconv.Itoa(f) + `": ` + []string{`"T42"`, `12.5`, `-7`, `true`, `null`, `1e3`}[f%6])
			}
			b.WriteByte('}')
		}
		b.WriteByte(']')
		decode := func() {
			d := restDecoder{coll: "events", key: "id", pair: true, field: "val"}
			items, err := d.page(b.Bytes(), 1<<20, make([]iql.Value, 0, records))
			if err != nil || len(items) != records {
				t.Fatalf("%d rows, %v", len(items), err)
			}
		}
		// A page is validated by json.Valid, whose scanner comes from a
		// sync.Pool; the race detector's build drops a quarter of what
		// Put is handed, so a run finds the pool empty at random and pays
		// two allocations for a new scanner. The least of single runs is
		// a run that found one, the same whatever the drops.
		allocs = iqltest.Least(16, func() float64 { return testing.AllocsPerRun(1, decode) })
		return allocs, iqltest.AllocBytesPerRun(5, decode)
	}
	narrow, narrowBytes := page(500, 2)
	wide, _ := page(500, 12)
	t.Logf("one page of 500 records: %.0f allocations", narrow)
	// A field that cost anything would show as thousands; one either
	// way is the race detector's own bookkeeping (make race).
	if math.Abs(narrow-wide) > 1 || narrow > 500/pairChunkRows+8 {
		t.Errorf("a page costs %.0f allocations with 2 unprojected fields and %.0f with 12, want the same few", narrow, wide)
	}
	_, longBytes := page(1500, 2)
	perRow := (longBytes - narrowBytes) / 1000
	t.Logf("a record of a page: %.1f bytes", perRow)
	if perRow > 100 {
		t.Errorf("a record of a REST page costs %.1f bytes, want at most 100", perRow)
	}
}
