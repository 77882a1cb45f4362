package wrapper

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/dataspace/automed/internal/iql"
)

// The reference the page walker (restDecoder) is tested against: the
// REST decoder as it stood before the walker replaced it. encoding/json
// builds one map per record, every field becomes an iql.Value in a
// second map, and the projection picks from that. It is slow and
// allocates per field, which is why it is gone from the wrapper, and it
// is exactly the semantics the walker must keep.

// refDecodeRows decodes a JSON array of flat objects into records of
// scalar IQL values.
func refDecodeRows(r io.Reader, maxBytes int64) ([]map[string]iql.Value, error) {
	var raw []map[string]any
	if err := decodeStrict(r, maxBytes, &raw); err != nil {
		return nil, err
	}
	rows := make([]map[string]iql.Value, 0, len(raw))
	for i, obj := range raw {
		if obj == nil {
			return nil, fmt.Errorf("record %d is null, not an object", i)
		}
		row := make(map[string]iql.Value, len(obj))
		for f, v := range obj {
			val, err := refScalarValue(v)
			if err != nil {
				return nil, fmt.Errorf("record %d field %q: %w", i, f, err)
			}
			row[f] = val
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// refScalarValue maps one decoded JSON field value onto an IQL scalar.
func refScalarValue(v any) (iql.Value, error) {
	switch x := v.(type) {
	case nil:
		return iql.Null(), nil
	case bool:
		return iql.Bool(x), nil
	case string:
		return iql.Str(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return iql.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return iql.Value{}, fmt.Errorf("number %q fits neither int64 nor float64", x.String())
		}
		return iql.Float(f), nil
	}
	return iql.Value{}, fmt.Errorf("unsupported JSON value of type %T (records must be flat)", v)
}

// refRowItem projects one decoded record onto an extent item: the key,
// or with pair the {key, field} tuple, absent (ok=false) when the
// record has no value for the field.
func refRowItem(coll, key, field string, pair bool, r map[string]iql.Value, i int) (iql.Value, bool, error) {
	k, ok := r[key]
	if !ok || k.IsNull() {
		return iql.Value{}, false, fmt.Errorf("wrapper: rest: collection %q record %d has no key field %q", coll, i, key)
	}
	if !pair {
		return k, true, nil
	}
	v, ok := r[field]
	if !ok || v.IsNull() {
		return iql.Value{}, false, nil
	}
	return iql.Tuple(k, v), true, nil
}

// refExtent projects decoded records onto one object's extent.
func refExtent(coll, key, field string, pair bool, rows []map[string]iql.Value) (iql.Value, error) {
	items := make([]iql.Value, 0, len(rows))
	for i, r := range rows {
		item, ok, err := refRowItem(coll, key, field, pair, r, i)
		if err != nil {
			return iql.Value{}, err
		}
		if ok {
			items = append(items, item)
		}
	}
	return iql.BagOf(items), nil
}

// refInferFields lists the field names the records carry, sorted.
func refInferFields(rows []map[string]iql.Value) []string {
	seen := make(map[string]bool)
	for _, r := range rows {
		for f := range r {
			seen[f] = true
		}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// decodeStrict decodes exactly one JSON document within the byte
// budget, rejecting trailing garbage, as the reference decoder did. The budget counts raw bytes
// consumed from r — the same accounting as getBody — so a document of
// maxBytes decodes and one of maxBytes+1 fails on every path.
func decodeStrict(r io.Reader, maxBytes int64, v any) error {
	// The reader is allowed one sentinel byte past the budget: the
	// Decoder buffers ahead, so a mid-read error could reject documents
	// that fit. Overflow is instead checked on consumed bytes after the
	// fact — json.Decoder defers read errors it has buffered past, so
	// the error return alone cannot be relied on.
	br := &budgetReader{r: r, left: maxBytes + 1, max: maxBytes}
	dec := json.NewDecoder(br)
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if br.overflowed() {
		return fmt.Errorf("response exceeds the %d-byte budget", maxBytes)
	}
	// Only the end of input may follow (More would let a stray closing
	// bracket pass).
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON document")
	}
	if br.overflowed() {
		return fmt.Errorf("response exceeds the %d-byte budget", maxBytes)
	}
	return nil
}

// budgetReader fails reads that would exceed the byte budget.
type budgetReader struct {
	r    io.Reader
	left int64
	max  int64
}

// overflowed reports whether more than max bytes were consumed (the
// reader was seeded with one extra sentinel byte).
func (b *budgetReader) overflowed() bool { return b.left <= 0 }

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, fmt.Errorf("response exceeds the %d-byte budget", b.max)
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.r.Read(p)
	b.left -= int64(n)
	return n, err
}
