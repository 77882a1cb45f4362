package iql_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/iql/iqltest"
)

// A float's shortest digits are searched for once — or, for a source
// cell's float, once when it is read (SourceFloat) — and laid out three
// ways. These tests hold each layout to the library call it stands in
// for: strconv's %g for the key and the text, encoding/json for JSON.

// checkFloatLayouts encodes f — as Float(f) and as SourceFloat(f), the
// latter carrying its digits — alone (each output by itself) and as a
// bag's element (all three outputs in one visit) and compares every
// result with its reference. A float JSON cannot carry must fail there
// with encoding/json's error and still have its key and text.
func checkFloatLayouts(t *testing.T, f float64) {
	t.Helper()
	g := strconv.FormatFloat(f, 'g', -1, 64)
	wantKey := "f" + g
	if f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
		wantKey = "i" + strconv.FormatInt(int64(f), 10)
	}
	wantText := g
	if !strings.ContainsAny(g, ".eE") {
		wantText += ".0"
	}
	wantJSON, wantErr := json.Marshal(f)

	for _, v := range []iql.Value{iql.Float(f), iql.SourceFloat(f)} {
		if got := v.Key(); got != wantKey {
			t.Errorf("%x: Key() = %q, want %q", math.Float64bits(f), got, wantKey)
		}
		if got := v.String(); got != wantText {
			t.Errorf("%x: String() = %q, want %q", math.Float64bits(f), got, wantText)
		}
		bag := iql.Bag(v)
		if got, want := bag.Key(), "B["+wantKey+"]"; got != want {
			t.Errorf("%x: Key() in a bag = %q, want %q", math.Float64bits(f), got, want)
		}
		for _, in := range []struct {
			v                  iql.Value
			open, close, brack string
		}{{v, "", "", ""}, {bag, `{"bag":[`, `]}`, "[]"}} {
			js, text, err := iql.AppendJSONAndText(nil, nil, in.v)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%x: encoding %s: error %v, want %v", math.Float64bits(f), in.v, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%x: encoding %s: %v", math.Float64bits(f), in.v, err)
				continue
			}
			if want := in.open + string(wantJSON) + in.close; string(js) != want {
				t.Errorf("%x: JSON of %s = %s, want %s", math.Float64bits(f), in.v, js, want)
			}
			want := wantText
			if in.brack != "" {
				want = "[" + wantText + "]"
			}
			if string(text) != want {
				t.Errorf("%x: text of %s = %s, want %s", math.Float64bits(f), in.v, text, want)
			}
		}
	}
}

// layoutEdges are the floats where a layout changes shape: every power
// of ten from 1e-9 to 1e22 (both formats' exponent cutoffs lie within)
// with its neighbours, the zeros, the ends of the range and of the
// denormals, the integers either side of 2^53 and of 2^63, below which
// an integral float takes an int's key. And the floats where a carried
// digit's exponent is estimated from the binary one and corrected: every
// power of ten a float64 reaches and the floats one ulp either side,
// every power of two, and values of 16 and 17 digits.
func layoutEdges() []float64 {
	edges := append([]float64{
		0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x0010000000000000), // largest denormal, smallest normal
		math.Float64frombits(0x0010000000000001), math.Float64frombits(0x8010000000000000),
		1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1),
		0x1p63, -0x1p63, 0x1p63 - 1024, -0x1p63 - 2048,
		1e15 - 1, 1e15 - 0.5, 999999999999999.9, 123456.7, 1234567.8, 0.00012345, 0.000012345,
		0.1 + 0.2, 1.2345678901234567e-300, 9.999999999999999e22, 2.2250738585072014e-308, 5e-324,
		1951.6813433541235, 808.2543208451929, -1.7976931348623155e+308, 4.9406564584124654e-310,
	}, iqltest.Floats...)
	edges = append(edges, iqltest.NonFinite...)
	for e := -9; e <= 22; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		for _, f := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), p * 1.5, p * 9.75} {
			edges = append(edges, f, -f)
		}
	}
	for e := -307; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for e := -1022; e <= 1023; e++ {
		edges = append(edges, math.Ldexp(1, e))
	}
	// Table 1's floats: 16 and 17 digits, as ispider draws them.
	r := rand.New(rand.NewSource(1))
	for range 16 {
		edges = append(edges, 800+r.Float64()*2000, r.Float64(), r.Float64()*1e5)
	}
	return edges
}

func TestFloatLayoutsMatchStrconvAndJSON(t *testing.T) {
	for _, f := range layoutEdges() {
		checkFloatLayouts(t, f)
	}
	r := rand.New(rand.NewSource(17))
	for n := 0; n < 1_000_000 && !t.Failed(); n++ {
		checkFloatLayouts(t, math.Float64frombits(r.Uint64()))
	}
}

// FuzzFloatLayouts runs the same comparison on fuzzed bit patterns; its
// seeds are the edges, so `go test -run '^Fuzz'` (make fuzz-seeds)
// covers them as plain tests.
func FuzzFloatLayouts(f *testing.F) {
	for _, x := range layoutEdges() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloatLayouts(t, math.Float64frombits(bits))
	})
}

// TestFloatRenderingParsesBackWhenFinite pins what the text layout
// promises: a finite float's rendering parses back to a value Equal to
// it, and a NaN or infinite one, which IQL has no literal for, renders
// as NaN.0, +Inf.0 or -Inf.0 — and does not parse back.
func TestFloatRenderingParsesBackWhenFinite(t *testing.T) {
	floats := layoutEdges()
	r := rand.New(rand.NewSource(18))
	for range 10_000 {
		floats = append(floats, math.Float64frombits(r.Uint64()))
	}
	ev := iql.NewEvaluator(nil)
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, v := range []iql.Value{iql.Float(f), iql.SourceFloat(f)} {
			text := v.String()
			e, err := iql.Parse(text)
			if err != nil {
				t.Errorf("%x renders as %s, which does not parse: %v", math.Float64bits(f), text, err)
				continue
			}
			if back, err := ev.Eval(e, nil); err != nil || !back.Equal(v) || back.Kind != iql.KindFloat {
				t.Errorf("%x renders as %s, which evaluates to %s, %v", math.Float64bits(f), text, back, err)
			}
		}
	}
	for _, nf := range []struct {
		f    float64
		text string
	}{{math.NaN(), "NaN.0"}, {math.Inf(1), "+Inf.0"}, {math.Inf(-1), "-Inf.0"}} {
		if got := iql.Float(nf.f).String(); got != nf.text {
			t.Errorf("%v renders as %s, want %s", nf.f, got, nf.text)
		}
		if e, err := iql.Parse(nf.text); err == nil {
			if v, err := ev.Eval(e, nil); err == nil && v.Kind == iql.KindFloat {
				t.Errorf("%s parses and evaluates to %s: the rendering's limit is out of date", nf.text, v)
			}
		}
	}
}
