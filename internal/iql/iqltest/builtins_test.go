package iqltest

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/iql"
)

// TestBuiltinsMatchDocs: the language reference's builtin table is
// Builtins, row for row, and names what the evaluator knows, at the
// arity it takes.
func TestBuiltinsMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../../docs/iql.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows, want []string
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "| `") {
			rows = append(rows, line)
		}
	}
	var names []string
	for _, b := range Builtins {
		order := map[bool]string{true: "yes", false: "no"}[b.Ordered]
		want = append(want, fmt.Sprintf("| `%s` | %d | %s | %s | %s | %s |", b.Name, b.Arity, b.Args, b.Result, b.Edges, order))
		names = append(names, b.Name)
	}
	if !slices.Equal(rows, want) {
		t.Errorf("docs/iql.md's builtin table:\n%s\niqltest.Builtins:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
	if got := iql.Builtins(); !slices.Equal(got, names) {
		t.Errorf("iql.Builtins() = %v, the table names %v", got, names)
	}
	for _, b := range Builtins {
		for n := range 4 {
			args := slices.Repeat([]iql.Expr{&iql.Lit{Val: iql.Null()}}, n)
			_, err := iql.NewEvaluator(nil).Eval(&iql.Call{Fn: b.Name, Args: args}, nil)
			if arity := err != nil && strings.Contains(err.Error(), "argument(s)"); arity != (n != b.Arity) {
				t.Errorf("%s of %d arguments: %v, the table's arity is %d", b.Name, n, err, b.Arity)
			}
		}
	}
}

// TestBuiltinsConform holds the evaluator's builtins to the table's on
// edge arguments — every object of the edge world, and scalars of every
// kind — and, where the table says an answer does not depend on element
// order, to themselves over the bag reversed.
func TestBuiltinsConform(t *testing.T) {
	w := EdgeWorld()
	args := []iql.Value{iql.Null(), iql.Bool(true), iql.Int(5), iql.Int(1<<53 + 1), iql.Float(1 << 53), iql.Float(math.NaN()),
		iql.Float(-2.5), iql.Int(math.MinInt64), iql.Str("Kinase"), iql.Str("kin"), iql.Tuple(iql.Int(1)), iql.Void(), iql.Any(),
		iql.Bag(iql.Bag(iql.Int(1)), iql.Void()), iql.Bag(iql.Float(0.1), iql.Float(0.2), iql.Float(0.3))}
	for _, v := range w.Base() {
		args = append(args, v)
	}
	reversed := func(v iql.Value) iql.Value {
		if v.Kind != iql.KindBag {
			return v
		}
		els := slices.Clone(v.Items())
		slices.Reverse(els)
		return iql.BagOf(els)
	}
	for _, b := range Builtins {
		var calls [][]iql.Value
		for _, a := range args {
			if b.Arity == 1 {
				calls = append(calls, []iql.Value{a})
				continue
			}
			for _, c := range args {
				calls = append(calls, []iql.Value{a, c})
			}
		}
		for _, call := range calls {
			exprs := make([]iql.Expr, len(call))
			for i, a := range call {
				exprs[i] = &iql.Lit{Val: a}
			}
			got, err := iql.NewEvaluator(nil).Eval(&iql.Call{Fn: b.Name, Args: exprs}, nil)
			want, wantErr := b.Fn(call)
			if d := Mismatch(got, err, want, wantErr); d != "" {
				t.Errorf("%s%v: %s", b.Name, call, d)
			}
			if b.Ordered {
				continue
			}
			exprs[0] = &iql.Lit{Val: reversed(call[0])}
			back, backErr := iql.NewEvaluator(nil).Eval(&iql.Call{Fn: b.Name, Args: exprs}, nil)
			if (err == nil) != (backErr == nil) || err == nil && !Alike(got, back) {
				t.Errorf("%s%v = %s, %v; over the bag reversed %s, %v", b.Name, call, got, err, back, backErr)
			}
		}
	}
}
