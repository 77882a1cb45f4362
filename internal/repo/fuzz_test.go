package repo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
)

// fuzzSeedRepo builds a small but feature-complete repository (every
// step kind that Save emits) whose serialisation seeds the fuzzer with
// a structurally valid snapshot to mutate.
func fuzzSeedRepo() *Repository {
	r := New()
	a := hdm.NewSchema("A")
	a.MustAdd(hdm.NewObject(hdm.MustScheme("<<x>>"), hdm.Nodal, "sql", "table"))
	a.MustAdd(hdm.NewObject(hdm.MustScheme("<<x, c>>"), hdm.Link, "sql", "column"))
	b := hdm.NewSchema("B")
	b.MustAdd(hdm.NewObject(hdm.MustScheme("<<y>>"), hdm.Nodal, "", ""))
	if err := r.AddSchema(a); err != nil {
		panic(err)
	}
	if err := r.AddSchema(b); err != nil {
		panic(err)
	}
	p := transform.NewPathway("A", "B",
		transform.NewAdd(hdm.NewObject(hdm.MustScheme("<<y>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<x>>]")).WithAuto(),
		transform.NewExtend(hdm.NewObject(hdm.MustScheme("<<z>>"), hdm.Nodal, "", ""), iql.MustParse("Void"), iql.MustParse("Any")),
		transform.NewRename(hdm.NewObject(hdm.MustScheme("<<x, c>>"), hdm.Nodal, "", ""), hdm.NewObject(hdm.MustScheme("<<x, c2>>"), hdm.Nodal, "", "")),
		transform.NewDelete(hdm.NewObject(hdm.MustScheme("<<x>>"), hdm.Nodal, "", ""), iql.MustParse("[k | k <- <<y>>]")),
		transform.NewContract(hdm.NewObject(hdm.MustScheme("<<x, c2>>"), hdm.Nodal, "", ""), nil, nil),
	)
	if err := r.AddPathway(p, false); err != nil {
		panic(err)
	}
	return r
}

// FuzzRepoLoad asserts repo.Load never panics on malformed snapshots —
// it must either error or produce a repository that round-trips
// through Save again, to a document that encodes to itself. The seed
// corpus covers the malformed-JSON classes a corrupted or hand-edited
// snapshot file exhibits, and a document followed by trailing bytes.
func FuzzRepoLoad(f *testing.F) {
	var valid bytes.Buffer
	if err := fuzzSeedRepo().Save(&valid); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		valid.String(),
		"",
		"null",
		"{}",
		"[]",
		`{"version":1}`,
		`{"version":99,"schemas":[]}`,
		`{"version":1,"schemas":[{"name":"","objects":[{"scheme":"<<x>>","kind":"nodal"}]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[{"scheme":"<<","kind":"nodal"}]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[{"scheme":"<<x>>","kind":"wat"}]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[{"scheme":"<<x>>","kind":"nodal"},{"scheme":"<<x>>","kind":"nodal"}]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[]},{"name":"A","objects":[]}]}`,
		`{"version":1,"pathways":[{"source":"A","target":"B","steps":[]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[]}],"pathways":[{"source":"A","target":"A","steps":[{"kind":"add","object":"<<y>>"}]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[]}],"pathways":[{"source":"A","target":"A","steps":[{"kind":"warp","object":"<<y>>"}]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[]}],"pathways":[{"source":"A","target":"A","steps":[{"kind":"add","object":"<<y>>","query":"[ | <-"}]}]}`,
		`{"version":1,"schemas":[{"name":"A","objects":[]}],"pathways":[{"source":"A","target":"A","steps":[{"kind":"rename","object":"<<y>>","to":"<<"}]}]}`,
		`{"version":1,"schemas":` + strings.Repeat("[", 1000) + strings.Repeat("]", 1000) + `}`,
		"\x00\x01\x02",
		`{"version":1e309}`,
		`{"version":1,"schemas":null,"pathways":null} {"oops"`,
		valid.String() + "{}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything Load accepts must save again cleanly.
		var out bytes.Buffer
		if err := r.Save(&out); err != nil {
			t.Fatalf("loaded repository does not re-save: %v", err)
		}
		saved := append([]byte(nil), out.Bytes()...)
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("re-saved repository does not re-load: %v", err)
		}
		// A document this code wrote is the canonical one: loading it and
		// encoding what was loaded gives its own tokens back.
		var compact bytes.Buffer
		if err := json.Compact(&compact, saved); err != nil {
			t.Fatal(err)
		}
		if doc, err := again.MarshalJSON(); err != nil || !bytes.Equal(doc, compact.Bytes()) {
			t.Fatalf("a saved document does not encode to itself (%v):\nsaved %s\n again %s", err, compact.Bytes(), doc)
		}
	})
}
