package hdm

import (
	"fmt"
	"sort"
	"strings"
)

// Node is an HDM node: a named set of values.
type Node struct {
	Name string
}

// Edge is an HDM edge: a named (possibly unnamed, Name "_") hyperedge
// linking two or more nodes and/or other edges, identified by name.
type Edge struct {
	Name string
	Ends []string
}

// Constraint is an HDM constraint: a boolean expression over nodes and
// edges, stored textually.
type Constraint struct {
	Name string
	Expr string
}

// Graph is an HDM hypergraph: the expansion of a schema into the common
// data model. It is produced by the model definitions in package model.
type Graph struct {
	nodes       map[string]Node
	edges       map[string]Edge
	constraints map[string]Constraint
}

// NewGraph returns an empty hypergraph.
func NewGraph() *Graph {
	return &Graph{
		nodes:       make(map[string]Node),
		edges:       make(map[string]Edge),
		constraints: make(map[string]Constraint),
	}
}

// AddNode inserts a node; duplicate names are an error.
func (g *Graph) AddNode(name string) error {
	if name == "" {
		return fmt.Errorf("hdm: empty node name")
	}
	if _, dup := g.nodes[name]; dup {
		return fmt.Errorf("hdm: duplicate node %q", name)
	}
	g.nodes[name] = Node{Name: name}
	return nil
}

// AddEdge inserts an edge. Every end must already exist as a node or
// edge.
func (g *Graph) AddEdge(name string, ends ...string) error {
	if len(ends) < 2 {
		return fmt.Errorf("hdm: edge %q needs at least two ends", name)
	}
	if _, dup := g.edges[name]; dup {
		return fmt.Errorf("hdm: duplicate edge %q", name)
	}
	for _, e := range ends {
		if !g.HasNode(e) && !g.HasEdge(e) {
			return fmt.Errorf("hdm: edge %q references unknown end %q", name, e)
		}
	}
	g.edges[name] = Edge{Name: name, Ends: append([]string(nil), ends...)}
	return nil
}

// AddConstraint inserts a constraint.
func (g *Graph) AddConstraint(name, expr string) error {
	if _, dup := g.constraints[name]; dup {
		return fmt.Errorf("hdm: duplicate constraint %q", name)
	}
	g.constraints[name] = Constraint{Name: name, Expr: expr}
	return nil
}

// RemoveNode deletes a node; it is an error if any edge still references
// it.
func (g *Graph) RemoveNode(name string) error {
	if _, ok := g.nodes[name]; !ok {
		return fmt.Errorf("hdm: no node %q", name)
	}
	for _, e := range g.edges {
		for _, end := range e.Ends {
			if end == name {
				return fmt.Errorf("hdm: node %q still referenced by edge %q", name, e.Name)
			}
		}
	}
	delete(g.nodes, name)
	return nil
}

// RemoveEdge deletes an edge; it is an error if another edge references
// it.
func (g *Graph) RemoveEdge(name string) error {
	if _, ok := g.edges[name]; !ok {
		return fmt.Errorf("hdm: no edge %q", name)
	}
	for _, e := range g.edges {
		if e.Name == name {
			continue
		}
		for _, end := range e.Ends {
			if end == name {
				return fmt.Errorf("hdm: edge %q still referenced by edge %q", name, e.Name)
			}
		}
	}
	delete(g.edges, name)
	return nil
}

// HasNode reports whether a node exists.
func (g *Graph) HasNode(name string) bool { _, ok := g.nodes[name]; return ok }

// HasEdge reports whether an edge exists.
func (g *Graph) HasEdge(name string) bool { _, ok := g.edges[name]; return ok }

// HasConstraint reports whether a constraint exists.
func (g *Graph) HasConstraint(name string) bool { _, ok := g.constraints[name]; return ok }

// Nodes returns node names in sorted order.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Edges returns edges sorted by name.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Constraints returns constraints sorted by name.
func (g *Graph) Constraints() []Constraint {
	out := make([]Constraint, 0, len(g.constraints))
	for _, c := range g.constraints {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Size returns the counts of nodes, edges and constraints.
func (g *Graph) Size() (nodes, edges, constraints int) {
	return len(g.nodes), len(g.edges), len(g.constraints)
}

// String renders a compact multi-line description of the graph.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hdm graph: %d nodes, %d edges, %d constraints\n",
		len(g.nodes), len(g.edges), len(g.constraints))
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  node %s\n", n)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  edge %s (%s)\n", e.Name, strings.Join(e.Ends, " -- "))
	}
	for _, c := range g.Constraints() {
		fmt.Fprintf(&b, "  constraint %s: %s\n", c.Name, c.Expr)
	}
	return b.String()
}
