package server

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeQueryIsDecode: decodeQuery reads every body as decode does —
// the same request, or the same error — whether it reads it in place or
// hands it on.
func TestDecodeQueryIsDecode(t *testing.T) {
	bodies := []string{
		`{"query":"count(<<UBook>>)"}`,
		` { "session" : "s1" , "query":"q", "explain":true,"no_cache":false,"require_fresh":true } `,
		`{"query":"q","version":3,"timeout_ms":250}`,
		`{}`, `{"query":"a","query":"b"}`, `{"timeout_ms":5,"timeout_ms":7}`,
		`{"version":0}`, `{"version":null}`, `{"version":-1}`, `{"version":01}`, `{"version":1.5}`, `{"version":1e2}`,
		`{"version":12345678901}`, `{"version":"1"}`, `{"timeout_ms":999999999}`,
		`{"query":"a\"b"}`, `{"query":"count(\u003c\u003cUBook\u003e\u003e)"}`, `{"query":"a\/b"}`, `{"query":"\ud834\udd1e"}`,
		`{"query":"\ud800"}`, `{"query":"\x41"}`, `{"query":"\'"}`, `{"query":"a\nb\t\"\\ \b\f\r"}`, `{"que\u0072y":"x"}`,
		`{"query":"\u00"}`, `{"query":"\u00e9\u20AC"}`, `{"query":"\`, `{"query":"aé"}`, "{\"query\":\"a\xffb\"}", "{\"query\":\"a\tb\"}", `{"query":"é€𝄞"}`,
		`{"QUERY":"x"}`, `{"Query":"x"}`, `{"other":1}`, `{"query":"x",}`, `{"query":"x"} {}`, `{"query":"x"}x`,
		`{"explain":tru}`, `{"explain":truex}`, `{"explain":null}`, `{"query":}`, `{"query" "x"}`, `{"query":"x"`,
		``, `  `, `[]`, `null`, `"x"`, `{"query":"x"}` + "\n",
	}
	for _, body := range append(bodies[:2:2], bodies[16]) {
		if !readQuery([]byte(body), &queryReq{}) {
			t.Errorf("%q is not read in place", body)
		}
	}
	for _, body := range bodies {
		var want, got queryReq
		wantErr := decode(httptest.NewRequest("POST", "/query", bytes.NewBufferString(body)), &want)
		gotErr := decodeQuery(httptest.NewRequest("POST", "/query", bytes.NewBufferString(body)), &got)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Errorf("%q: error %v, decode's %v", body, gotErr, wantErr)
			continue
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%q: read %+v, decode %+v", body, got, want)
		}
	}
}

// TestReadQueryCopiesAStringOnce: a query text read in place is copied
// out of the body once, escaped or not.
func TestReadQueryCopiesAStringOnce(t *testing.T) {
	for _, body := range []string{`{"query":"count(<<UBook>>)"}`, `{"query":"count(<<UBook>>) \"a\\b\""}`} {
		b := []byte(body)
		var req queryReq
		if allocs := testing.AllocsPerRun(10, func() { readQuery(b, &req) }); allocs != 1 {
			t.Errorf("%s: reading it in place allocates %v times, want once", body, allocs)
		}
		if want := `count(<<UBook>>)`; !strings.HasPrefix(req.Query, want) {
			t.Errorf("%s: read %q", body, req.Query)
		}
	}
}
