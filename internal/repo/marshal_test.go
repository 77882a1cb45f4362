package repo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/transform"
)

// refMarshal encodes the repository from scratch, through one repoDTO
// and encoding/json, walking the repository only through its exported
// accessors: the reference MarshalJSON is held to.
func refMarshal(t *testing.T, r *Repository) []byte {
	t.Helper()
	dto := repoDTO{Version: persistVersion}
	for _, name := range r.SchemaNames() {
		s, _ := r.Schema(name)
		sd := schemaDTO{Name: s.Name()}
		for _, o := range s.Objects() {
			sd.Objects = append(sd.Objects, objectDTO{
				Scheme: o.Scheme.String(), Kind: o.Kind.String(), Model: o.Model, Construct: o.Construct,
			})
		}
		dto.Schemas = append(dto.Schemas, sd)
	}
	for _, p := range r.Pathways() {
		pd := pathwayDTO{Source: p.Source, Target: p.Target}
		for _, st := range p.Steps {
			sd := stepDTO{Kind: st.Kind.String(), Object: st.Object.Scheme.String(), Auto: st.Auto}
			if st.Query != nil {
				sd.Query = st.Query.String()
			}
			if st.To != nil {
				sd.To = st.To.Scheme.String()
			}
			if st.Kind == transform.Add || st.Kind == transform.Extend {
				sd.ObjKind, sd.Model, sd.Construct = st.Object.Kind.String(), st.Object.Model, st.Object.Construct
			}
			pd.Steps = append(pd.Steps, sd)
		}
		dto.Pathways = append(dto.Pathways, pd)
	}
	b, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMarshalMatchesFreshEncoding: whatever was added to the repository
// and whatever happened since to the schemas and pathways it stores,
// MarshalJSON is byte for byte the document encoded from scratch — the
// nulls encoding/json writes for an empty repository, an object-less
// placeholder schema and a step-less pathway included — and Save is
// that document indented.
func TestMarshalMatchesFreshEncoding(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		r := New()
		var schemas []*hdm.Schema
		var pathways []*transform.Pathway
		serial := 0
		scheme := func() hdm.Scheme {
			serial++
			if rnd.Intn(2) == 0 {
				return hdm.MustScheme(fmt.Sprintf("<<t%d, c&%d>>", serial, serial))
			}
			return hdm.MustScheme(fmt.Sprintf("<<t%d>>", serial))
		}
		step := func() transform.Transformation {
			switch rnd.Intn(5) {
			case 0:
				return transform.NewAdd(hdm.NewObject(scheme(), hdm.Link, "sql", "column"), iql.MustParse("[k | k <- <<x>>; k < 3]")).WithAuto()
			case 1:
				return transform.NewExtend(hdm.NewObject(scheme(), hdm.Nodal, "", ""), iql.MustParse("Void"), iql.MustParse("Any"))
			case 2:
				return transform.NewRename(hdm.NewObject(scheme(), hdm.Nodal, "", ""), hdm.NewObject(scheme(), hdm.Nodal, "", ""))
			case 3:
				return transform.NewDelete(hdm.NewObject(scheme(), hdm.Nodal, "", ""), iql.MustParse("[{'S', k} | k <- <<y>>]"))
			}
			return transform.NewContract(hdm.NewObject(scheme(), hdm.Nodal, "", ""), nil, nil)
		}
		check := func(op string) {
			t.Helper()
			got, err := r.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want := refMarshal(t, r)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d after %s:\n got %s\nwant %s", seed, op, got, want)
			}
			var saved, indented bytes.Buffer
			if err := r.Save(&saved); err != nil {
				t.Fatal(err)
			}
			if err := json.Indent(&indented, want, "", "  "); err != nil {
				t.Fatal(err)
			}
			indented.WriteByte('\n')
			if !bytes.Equal(saved.Bytes(), indented.Bytes()) {
				t.Fatalf("seed %d after %s: Save wrote\n%s\nwant\n%s", seed, op, saved.Bytes(), indented.Bytes())
			}
		}
		check("New")
		if got, _ := r.MarshalJSON(); string(got) != `{"version":1,"schemas":null,"pathways":null}` {
			t.Fatalf("empty repository: %s", got)
		}
		for i := 0; i < 60; i++ {
			op := "nothing"
			switch n := rnd.Intn(8); {
			case n == 0 || len(schemas) < 2:
				s := hdm.NewSchema(fmt.Sprintf("S%d<%d>", rnd.Intn(1000), len(schemas)))
				for k := rnd.Intn(3); k > 0; k-- { // none: a placeholder, "objects":null
					s.MustAdd(hdm.NewObject(scheme(), hdm.Nodal, "sql", "table"))
				}
				if err := r.AddSchema(s); err != nil {
					t.Fatal(err)
				}
				schemas, op = append(schemas, s), "AddSchema"
			case n == 1:
				p := transform.NewPathway(schemas[rnd.Intn(len(schemas))].Name(), schemas[rnd.Intn(len(schemas))].Name())
				for k := rnd.Intn(3); k > 0; k-- {
					p.Append(step())
				}
				if err := r.AddPathway(p, false); err != nil {
					t.Fatal(err)
				}
				pathways, op = append(pathways, p), "AddPathway"
			case n == 2:
				s := schemas[rnd.Intn(len(schemas))]
				s.MustAdd(hdm.NewObject(scheme(), hdm.ConstraintObj, "", "key"))
				op = "Schema.Add"
			case n == 3 || n == 4:
				s := schemas[rnd.Intn(len(schemas))]
				if s.Len() == 0 {
					continue
				}
				if sc := s.Schemes()[rnd.Intn(s.Len())]; n == 3 {
					if err := s.Remove(sc); err != nil {
						t.Fatal(err)
					}
					op = "Schema.Remove"
				} else {
					if err := s.Rename(sc, scheme()); err != nil {
						t.Fatal(err)
					}
					op = "Schema.Rename"
				}
			case len(pathways) == 0:
				continue
			case n == 5 || n == 6:
				pathways[rnd.Intn(len(pathways))].Append(step())
				op = "Pathway.Append"
			default:
				p := pathways[rnd.Intn(len(pathways))]
				p.Steps = append(p.Steps, step()) // the field is exported
				op = "Steps = append"
			}
			check(op)
		}
	}
}
