package wrapper

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
)

// XML wraps an XML document as a data source: each distinct element
// name becomes a nodal object <<e>> whose extent is the bag of node
// identifiers (document-order paths); each attribute becomes a link
// object <<e, @a>> of {id, value} pairs; element text content becomes
// <<e, text>>; and parent-child nesting becomes <<child, parent>> pairs
// of {childID, parentID}. This demonstrates the common-data-model claim
// of the paper: heterogeneous languages integrate through one HDM.
type XML struct {
	name    string
	schema  *hdm.Schema
	extents map[string][]iql.Value
	memo    docMemo
	inst    Instance
}

// Instance returns what caches know the wrapper by.
func (w *XML) Instance() *Instance { return &w.inst }

type xmlNode struct {
	name     string
	id       string
	parentID string
	attrs    []xml.Attr
	text     string
}

// NewXML parses an XML document from r and wraps it under the given
// source name.
func NewXML(name string, r io.Reader) (*XML, error) {
	dec := xml.NewDecoder(r)
	var nodes []xmlNode
	type frame struct {
		node  int // index into nodes
		count map[string]int
	}
	var stack []frame
	rootCount := map[string]int{}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wrapper: xml: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var parentID string
			var counts map[string]int
			if len(stack) == 0 {
				counts = rootCount
			} else {
				p := &stack[len(stack)-1]
				parentID = nodes[p.node].id
				counts = p.count
			}
			counts[t.Name.Local]++
			id := t.Name.Local + fmt.Sprintf("#%d", counts[t.Name.Local])
			if parentID != "" {
				id = parentID + "/" + id
			}
			nodes = append(nodes, xmlNode{
				name:     t.Name.Local,
				id:       id,
				parentID: parentID,
				attrs:    append([]xml.Attr(nil), t.Attr...),
			})
			stack = append(stack, frame{node: len(nodes) - 1, count: map[string]int{}})
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				s := strings.TrimSpace(string(t))
				if s != "" {
					n := &nodes[stack[len(stack)-1].node]
					if n.text != "" {
						n.text += " "
					}
					n.text += s
				}
			}
		}
	}

	w := &XML{name: name, schema: hdm.NewSchema(name), extents: make(map[string][]iql.Value)}
	addObj := func(sc hdm.Scheme, kind hdm.ObjectKind, construct string) error {
		if w.schema.Has(sc) {
			return nil
		}
		return w.schema.Add(hdm.NewObject(sc, kind, "xml", construct))
	}
	for _, n := range nodes {
		esc := hdm.NewScheme(n.name)
		if err := addObj(esc, hdm.Nodal, "element"); err != nil {
			return nil, err
		}
		w.extents[esc.Key()] = append(w.extents[esc.Key()], iql.Str(n.id))
		for _, a := range n.attrs {
			asc := hdm.NewScheme(n.name, "@"+a.Name.Local)
			if err := addObj(asc, hdm.Link, "attribute"); err != nil {
				return nil, err
			}
			w.extents[asc.Key()] = append(w.extents[asc.Key()],
				iql.Tuple(iql.Str(n.id), iql.Str(a.Value)))
		}
		if n.text != "" {
			tsc := hdm.NewScheme(n.name, "text")
			if err := addObj(tsc, hdm.Link, "text"); err != nil {
				return nil, err
			}
			w.extents[tsc.Key()] = append(w.extents[tsc.Key()],
				iql.Tuple(iql.Str(n.id), iql.Str(n.text)))
		}
		if n.parentID != "" {
			parentName := nodeName(n.parentID)
			nsc := hdm.NewScheme(n.name, parentName)
			if err := addObj(nsc, hdm.Link, "nest"); err != nil {
				return nil, err
			}
			w.extents[nsc.Key()] = append(w.extents[nsc.Key()],
				iql.Tuple(iql.Str(n.id), iql.Str(n.parentID)))
		}
	}
	return w, nil
}

// nodeName extracts the element name from a node id such as
// "a#1/b#2" → "b".
func nodeName(id string) string {
	last := id
	if i := strings.LastIndex(id, "/"); i >= 0 {
		last = id[i+1:]
	}
	if j := strings.LastIndex(last, "#"); j >= 0 {
		last = last[:j]
	}
	return last
}

// SchemaName implements Wrapper.
func (w *XML) SchemaName() string { return w.name }

// Kind labels the wrapper flavour in metrics and traces.
func (w *XML) Kind() string { return "xml" }

// Schema implements Wrapper.
func (w *XML) Schema() *hdm.Schema { return w.schema }

// Extent implements Wrapper.
func (w *XML) Extent(parts []string) (iql.Value, error) {
	obj, err := w.schema.Resolve(parts)
	if err != nil {
		return iql.Value{}, err
	}
	return iql.BagOf(append([]iql.Value(nil), w.extents[obj.Scheme.Key()]...)), nil
}

// ExtentScanner implements ScanSourcer over the parsed document.
func (w *XML) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return materialisedScanner(w, parts)
}
