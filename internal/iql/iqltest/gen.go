package iqltest

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"unicode/utf8"

	"github.com/dataspace/automed/internal/iql"
)

// Corpus is the query texts every test that holds an evaluation to Eval
// starts from, over EdgeWorld with EdgeVars bound: every shape of
// answer a comprehension, a tuple of them or anything else can have; the
// errors of evaluation and of encoding, one before the other; the
// lexer's edge tokens; and the joins a repeated or rebound pattern
// variable must key on the right component.
var Corpus = []string{
	// A comprehension at the top.
	"[x | x <- <<mixed>>]",
	"[{k, v} | {k, v} <- <<pairs>>]",
	"[{v, k, [k, v], {k}} | {k, v} <- <<pairs>>]",
	"[1 | x <- <<mixed>>]",
	`['it\'s' | x <- <<nums>>]`,
	"[{} | x <- <<nums>>]",
	"[{c, k} | {k, v} <- <<pairs>>]", // c is bound by EdgeVars, as an outer let binds it
	"[x | x <- <<empty>>]",
	"[x | x <- <<nums>>; x >= 5]",
	"[x | x <- <<zeros>>]",
	"[{x, 'z'} | x <- <<zeros>>; x < 1]",
	"[{x, y} | x <- <<nums>>; y <- <<nums>>; y = x]",
	"[{a, b} | {k, a} <- <<pairs>>; {k2, b} <- <<pairs>>; k2 = k]",
	"[{k, [w | {j, w} <- <<pairs>>; j = k]} | {k, v} <- <<pairs>>]",
	"[{k, count([w | {j, w} <- <<pairs>>; j = k])} | {k, v} <- <<pairs>>]",
	"[[y | y <- <<nums>>; y = x] | x <- <<nums>>]",
	"[if x > 5 then {x, 'big'} else {x} | x <- <<nums>>]",
	"[d | {k, d} <- <<pairs>>; k = 4; contains(d, 'kinase')]",
	"[x | x <- [3, 1, 2, 1, 3.0]]",
	"[{s, k} | {k, s} <- <<strings>>]",
	"[x | x <- Void]",
	// A tuple expression of them, and around other things.
	"{[k | {k, v} <- <<pairs>>], [v | {k, v} <- <<pairs>>; k > 2]}",
	"{[k | {k, v} <- <<pairs>>], count(<<mixed>>), 'x', {[x | x <- <<nums>>]}}",
	"{}",
	// Everything else.
	"count([x | x <- <<mixed>>])",
	"<<mixed>>",
	"<<scalar>>",
	"<<strings>>",
	"[x | x <- <<mixed>>] ++ [y | y <- <<nums>>]",
	"distinct([k | {k, v} <- <<pairs>>])",
	"sort(<<nums>>)",
	"let c = 7 in [{c, k} | {k, v} <- <<pairs>>]",
	"if count(<<empty>>) = 0 then [x | x <- <<nums>>] else <<empty>>",
	"[1, 2.0, 'three', {4, [5]}, Void, Any]",
	"Range [x | x <- <<nums>>] Any",
	"1e308 * 10.0",
	// Evaluation errors, encoding errors, and one before the other.
	"[v + 1 | {k, v} <- <<pairs>>]",
	"[x | x <- <<scalar>>]",
	"[x | x <- <<nowhere>>]",
	"[y | x <- <<nums>>; x]",
	"[undefined | x <- <<nums>>]",
	"[{k, x} | {k, x} <- <<bad>>]",
	"[{k, x} | {k, x} <- <<bad>>; x < 1.0]",
	"[{k, x * 2.0} | {k, x} <- <<bad>>]",
	"{[x | {k, x} <- <<bad>>], [x | x <- <<nums>>]}",
	"{[x | {k, x} <- <<bad>>], [x + 1 | {k, x} <- <<pairs>>]}",
	"{1e308 * 10.0, [x | x <- <<nums>>], [1 / (x - x) | x <- <<nums>>]}",
	"<<bad>>",
	// The lexer's edge tokens, and texts that do not parse.
	"", " ", "-- a comment\n[x | x <- <<nums>>] -- and another",
	"<<nums >>", "<< pairs , x>>", "<<>>", "<<a, >>", "<<a>b>>", "<<nums",
	"[x|x<-<<nums>>;x<>5;x<=9;x>=-1;x<10;x>0]", "[x | x <- <<nums>>; not (x = 5) and x < 9 or x = 10]",
	"'it\\'s'", "'back\\\\slash'", "'unterminated", "'\\x'", "'日本語' + '😀'",
	"1e5", "1E+5", "1e", "1.e5", "1.5e-3", "007", "9223372036854775807", "9223372036854775808", "1e999",
	"--5", "- -5", "5 - -5", "5--5", "1 / 0", "7 / 2", "6 / 3", "[1, 2] ++ [3]", "1 ++ 2",
	"{1, {2, {3}}}", "[[], [[]], {}]", "Void", "Any", "Range Void Any", "True and not False", "null",
	"count(1, 2)", "nosuch(1)", "max(<<nums>>)", "avg([x | x <- <<nums>>])", "first(<<empty>>)",
	"tostring(<<pairs>>)", "member(<<nums>>, 5.0)", "flatten([<<nums>>, <<empty>>])",
	"let x = <<nums>> in [{y, count(x)} | y <- x]", "[x | {x, x} <- <<pairs>>]", "[_ | _ <- <<nums>>]",
	"[x | {5, x} <- <<pairs>>]", "[x | x <- <<nums>>; y <- [x, x]; y > 4]", "@", "[x |", "[x | x <- ]",
	// A name a pattern repeats is bound to its last occurrence, and that
	// is the component a join is keyed on; a name the generator binds
	// again is its own in the filter.
	"[k | y <- [2]; {k, k} <- [{1, 2}]; k = y]",
	"[k | y <- [1]; {k, k} <- [{1, 2}]; k = y]",
	"[k | {k, k} <- [{1, 2}, {2, 2}]; k = 2]",
	"[k | y <- [2]; {k, {k, z}} <- [{1, {2, 3}}]; k = y]",
	"[v | k <- [1]; {k, v} <- [{2, 2}, {1, 5}]; v = k]",
	"[{} | {s} <- <<t>>; s = <<nowhere>>]", // a join's failing probe, reached by no element
	// A probe naming an outer comprehension's variable, or a let of an
	// earlier generator's, is keyed on an index; a source naming an outer
	// variable is constant for one evaluation of its comprehension.
	"[[w | {j, w} <- <<pairs>>; k = j] | {k, v} <- <<pairs>>]",
	"[{a, b} | {k, a} <- <<pairs>>; {k2, b} <- <<pairs>>; k2 = (let z = k in z)]",
	"[[x | x <- [k, v]] | {k, v} <- <<pairs>>]",
	"count([x | {x, x} <- <<pairs>>; x = 4])",
	// Where an int and a float of nearly its value part, and NaN.
	"[x | x <- <<nums>>; x = 9007199254740992.0]",
	"count(distinct(<<nums>>))",
	"[x | x <- <<floats>>; x >= 1]",
	"{max(<<floats>>), min(<<floats>>), sum(<<floats>>)}",
	"count(distinct(<<near>>))",
	"{<<near>> = [tofloat(x) | x <- <<near>>], [tofloat(x) | x <- <<near>>] = <<near>>}",
	"member(<<near>>, 9007199254740992.0)",
	"{max(<<text>>), min(<<text>>)}",
}

// EdgeVars binds the name the corpus expects from an enclosing scope.
var EdgeVars = map[string]iql.Value{"c": iql.Str("outer")}

// EdgeWorld is the world the corpus is written over: a generated world
// whose objects are extents made of the values where evaluations come
// apart — NULLs, ints beside the floats they tie with under the
// canonical key (5 and 5.0), the integers either side of ±2⁵³ and a
// float beside them, duplicates, strings that need escaping, nested
// tuples and bags, an empty bag, NaN — with <<bad>>, which JSON cannot
// carry, <<scalar>>, which is no collection, <<near>> and <<text>>,
// where an answer that depended on element order would show it, and
// <<strings>>, every one of Strings keyed by its index.
func EdgeWorld() *World {
	r := rand.New(rand.NewSource(21))
	w := NewWorld(r)
	mixed := make([]iql.Value, 40)
	for i := range mixed {
		mixed[i] = Value(r, 2)
	}
	var pairs []iql.Value
	vals := []iql.Value{iql.Null(), iql.Int(5), iql.Float(5), iql.Float(5.5), iql.Int(1 << 53), iql.Int(1<<53 + 1),
		iql.Float(1 << 53), iql.Int(-(1 << 53) - 1), iql.Str("it's"), iql.Str(`say "hi"`), iql.Str("kinase 7"),
		iql.Float(1e21), iql.Float(1e-7), iql.Bool(true), iql.Int(5)}
	for i, v := range vals {
		pairs = append(pairs, iql.Tuple(iql.Int(int64(i%6)), v))
	}
	pairs = append(pairs, pairs[3], iql.Tuple(iql.Null(), iql.Null()), iql.Int(9), iql.Tuple(iql.Int(1)))
	nums := []iql.Value{iql.Int(5), iql.Float(5), iql.Int(-1), iql.Float(2.5), iql.Int(1<<53 - 1), iql.Int(1 << 53),
		iql.Int(1<<53 + 1), iql.Int(-(1 << 53)), iql.Int(-(1 << 53) + 1), iql.Float(5), iql.Int(5), iql.Int(10), iql.Int(9)}
	floats := []iql.Value{iql.Float(2.5), iql.Float(math.NaN()), iql.Int(1), iql.Float(0.1), iql.Float(math.NaN())}
	bad := []iql.Value{iql.Tuple(iql.Int(1), iql.Float(0.5)), iql.Tuple(iql.Int(2), iql.Float(math.NaN())),
		iql.Tuple(iql.Int(3), iql.Float(math.Inf(1))), iql.Tuple(iql.Int(4), iql.Str("four"))}
	// Zeros tie under the canonical key and differ in JSON (0, -0): the
	// one place the tie-break of the canonical order shows in an answer.
	// Enough of them that the sort is not an insertion sort, which is
	// stable whether it means to be or not.
	zeros := make([]iql.Value, 96)
	for i := range zeros {
		zeros[i] = []iql.Value{iql.Int(0), iql.Float(math.Copysign(0, -1)), iql.Float(0), iql.Int(1)}[(i*7)%4]
	}
	strs := make([]iql.Value, len(Strings))
	for i, s := range Strings {
		strs[i] = iql.Tuple(iql.Int(int64(i)), iql.Str(s))
	}
	maps.Copy(w.Objects, map[string]iql.Value{
		"mixed": iql.BagOf(mixed), "pairs": iql.BagOf(pairs), "nums": iql.BagOf(nums), "floats": iql.BagOf(floats),
		"zeros": iql.BagOf(zeros), "bad": iql.BagOf(bad), "scalar": iql.Int(7), "strings": iql.BagOf(strs),
		"near": iql.Bag(iql.Int(1<<53), iql.Int(1<<53+1), iql.Float(1<<53)), "text": iql.Bag(iql.Int(1), iql.Str("a")),
	})
	return w
}

// A World is a generated dataspace: objects whose extents hold anything,
// a relational table, a collection a JSON source could serve, and a
// virtual object over the two. Values are drawn from few enough scalars
// that generated joins, filters and bag operations meet duplicates, an
// int beside a float of its value, the neighbours of 2⁵³, NULL and NaN.
type World struct {
	// Objects are <<mixed>>, scalars with the odd tuple or bag; <<pairs>>,
	// {key, value} pairs with a duplicate, the values mostly numbers and
	// strings; <<nums>>, numbers about 2⁵³; <<big>>, 130 pairs, a scan
	// of many pages and a join index worth caching; and <<empty>>.
	Objects map[string]iql.Value
	// Table <<t>> holds NULLs, NaN and any string, its rows in key order
	// as a SQL source reads them; Collection <<r>> only what JSON carries.
	Table, Collection Table
	// View <<U>> is the bag union of tagged copies of <<t, n>> and
	// <<r, n>>, in that order; when Lower, the second is a lower bound,
	// which an answer through it warns of.
	View  [2]string
	Lower bool
}

// Table is a relational table keyed by a distinct int, its rows the key
// and then a cell of each of Columns, Null where the table holds NULL.
type Table struct {
	Name string
	Rows [][]iql.Value
}

// Columns are every Table's columns after its key.
var Columns = []struct {
	Name string
	Kind iql.Kind
}{{"n", iql.KindInt}, {"f", iql.KindFloat}, {"s", iql.KindString}}

// NewWorld generates a world.
func NewWorld(r *rand.Rand) *World {
	draw := func(n int, draw func() iql.Value) iql.Value {
		els := make([]iql.Value, n)
		for i := range els {
			els[i] = draw()
		}
		return iql.BagOf(append(els, els[r.Intn(n)]))
	}
	mixed := func() iql.Value {
		switch r.Intn(6) {
		case 0:
			return Value(r, 1)
		case 1:
			return iql.Tuple(key(r), scalar(r))
		}
		return scalar(r)
	}
	pair := func() iql.Value {
		v := numbers[r.Intn(len(numbers))]
		switch r.Intn(10) {
		case 0, 1, 2:
			v = iql.Str([]string{"a", "b", "it's"}[r.Intn(3)])
		case 3:
			v = scalar(r)
		}
		return iql.Tuple(key(r), v)
	}
	big := make([]iql.Value, 130)
	for i := range big {
		big[i] = iql.Tuple(iql.Int(int64(i)), key(r))
	}
	w := &World{
		Objects: map[string]iql.Value{
			"mixed": draw(3+r.Intn(8), mixed), "pairs": draw(3+r.Intn(9), pair),
			"nums": draw(3+r.Intn(6), func() iql.Value { return numbers[r.Intn(len(numbers))] }),
			"big":  iql.BagOf(big), "empty": iql.Bag(),
		},
		Table:      table(r, "t", false),
		Collection: table(r, "r", true),
		View:       [2]string{"[{'T', k, v} | {k, v} <- <<t, n>>]", "[{'R', k, v} | {k, v} <- <<r, n>>]"},
		Lower:      r.Intn(2) == 0,
	}
	// A SQL source reads a table in key order.
	slices.SortFunc(w.Table.Rows, func(a, b []iql.Value) int { return cmp.Compare(a[0].I(), b[0].I()) })
	return w
}

// key draws a join key: few values, one of them a float beside the int
// of its value.
func key(r *rand.Rand) iql.Value {
	if r.Intn(8) == 0 {
		return iql.Float(2)
	}
	return iql.Int(int64(r.Intn(4)))
}

// numbers are where numbers come apart: the neighbours of 2⁵³ and the
// float among them, an int beside a float of its value, NaN.
var numbers = []iql.Value{
	iql.Int(1<<53 - 1), iql.Int(1 << 53), iql.Int(1<<53 + 1), iql.Float(1 << 53), iql.Int(5), iql.Float(5),
	iql.Float(2.5), iql.Float(0.1), iql.Float(math.NaN()), iql.Int(-1), iql.Int(1),
}

// scalars are what a World's other values are drawn from.
var scalars = []iql.Value{
	iql.Int(0), iql.Int(1), iql.Int(2), iql.Int(5), iql.Int(-1), iql.Int(1 << 53), iql.Int(1<<53 + 1), iql.Int(-(1 << 53) - 1),
	iql.Int(math.MaxInt64), iql.Float(2), iql.Float(5), iql.Float(2.5), iql.Float(0.1), iql.Float(1 << 53), iql.Float(math.NaN()),
	iql.Str("a"), iql.Str("b"), iql.Str("it's"), iql.Str(""), iql.Null(), iql.Bool(true),
}

func scalar(r *rand.Rand) iql.Value { return scalars[r.Intn(len(scalars))] }

// table generates a table of two to ten rows; json keeps its cells to
// what a JSON document carries exactly.
func table(r *rand.Rand, name string, json bool) Table {
	t := Table{Name: name}
	for _, k := range r.Perm(len(Ints))[:2+r.Intn(9)] {
		row := []iql.Value{iql.Int(Ints[k])}
		for _, c := range Columns {
			row = append(row, cell(r, c.Kind, json))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func cell(r *rand.Rand, kind iql.Kind, json bool) iql.Value {
	for {
		v := scalar(r)
		switch {
		case r.Intn(6) == 0:
			return iql.Null()
		case kind == iql.KindFloat && v.Kind == iql.KindInt:
			v = iql.Float(float64(v.I()))
		case kind == iql.KindString && r.Intn(3) == 0:
			v = iql.Str(Strings[r.Intn(len(Strings))])
		}
		if v.Kind == kind && !(json && (isNaN(v) || !utf8.ValidString(v.S()))) {
			return v
		}
	}
}

// Base returns the extents of the world's objects, table and collection
// by scheme key — all but <<U>>'s. The extents of a table are its keys,
// <<t>>, and the {key, cell} pairs of each column, <<t, c>>, where the
// cell is not NULL.
func (w *World) Base() map[string]iql.Value {
	ext := maps.Clone(w.Objects)
	for _, t := range []Table{w.Table, w.Collection} {
		var keys []iql.Value
		pairs := make([][]iql.Value, len(Columns))
		for _, row := range t.Rows {
			keys = append(keys, row[0])
			for c, v := range row[1:] {
				if !v.IsNull() {
					pairs[c] = append(pairs[c], iql.Tuple(row[0], v))
				}
			}
		}
		ext[t.Name] = iql.BagOf(keys)
		for c, col := range Columns {
			ext[t.Name+", "+col.Name] = iql.BagOf(pairs[c])
		}
	}
	return ext
}

// Extents serves the world as Eval sees it: Base, and <<U>> as its
// derivations evaluated by Eval, one after the other.
func (w *World) Extents() iql.Extents {
	base := w.Base()
	var ext iql.ExtentsFunc
	ext = func(parts []string) (iql.Value, error) {
		key := strings.Join(parts, ", ")
		if v, ok := base[key]; ok {
			return v, nil
		} else if key != "U" {
			return iql.Value{}, fmt.Errorf("no object <<%s>>", key)
		}
		var all []iql.Value
		for _, d := range w.View {
			v, err := Eval(iql.MustParse(d), ext, nil)
			if err != nil {
				return iql.Value{}, err
			}
			all = append(all, v.Items()...)
		}
		return iql.BagOf(all), nil
	}
	return ext
}

// Permuted returns the world with the elements of every extent in the
// order order gives for its length: the objects', and the rows of the
// table and the collection.
func (w *World) Permuted(order func(n int) []int) *World {
	p := *w
	p.Objects = maps.Clone(w.Objects)
	for name, v := range w.Objects {
		if v.Kind == iql.KindBag {
			p.Objects[name] = iql.BagOf(permute(v.Items(), order))
		}
	}
	p.Table.Rows, p.Collection.Rows = permute(w.Table.Rows, order), permute(w.Collection.Rows, order)
	return &p
}

func permute[T any](s []T, order func(n int) []int) []T {
	out := make([]T, len(s))
	for i, o := range order(len(s)) {
		out[i] = s[o]
	}
	return out
}

// Ordered reports whether e calls a builtin whose answer may depend on
// the order of a bag's elements, so that an answer over permuted extents
// may differ.
func Ordered(e iql.Expr) bool {
	text := e.String()
	return slices.ContainsFunc(Builtins, func(b Builtin) bool { return b.Ordered && strings.Contains(text, b.Name+"(") })
}

// Query writes a query over the world: a comprehension as it stands, or
// under count or first, beside another, or — over the values of an
// object of numbers, strings or both — under another builtin or beside
// its own float image.
func (w *World) Query(r *rand.Rand) string {
	g := &queryGen{r: r}
	switch r.Intn(22) {
	case 0, 1, 2:
		return "count(" + g.comp(0) + ")"
	case 3:
		return "first(" + g.comp(0) + ")"
	case 4:
		return g.comp(0) + " = " + g.comp(0)
	case 5, 6, 7:
		return g.selection(w.Table)
	case 8, 9:
		return g.join()
	case 10, 11, 12, 13:
		head, quals := g.values()
		c := "[" + head + " | " + quals + "]"
		switch r.Intn(8) {
		case 0:
			return c + " = [tofloat(" + head + ") | " + quals + "]"
		case 1:
			return "member(" + c + ", " + g.lit() + ")"
		case 2:
			return "count(distinct(" + c + "))"
		}
		return g.pick([]string{"max", "min", "sum", "avg", "distinct", "sort"}) + "(" + c + ")"
	}
	return g.comp(0)
}

// values writes the head and qualifiers of a comprehension yielding the
// values of an object of numbers, strings or both, maybe filtered.
func (g *queryGen) values() (head, quals string) {
	switch src := g.pick([]string{"<<pairs>>", "<<nums>>", "<<t, n>>", "<<t, f>>", "<<t, s>>", "<<r, f>>", "<<U>>"}); src {
	case "<<nums>>":
		head, quals = "x", "x <- <<nums>>"
	case "<<U>>":
		head, quals = "v", "{s, k, v} <- <<U>>"
	default:
		head, quals = "v", "{k, v} <- "+src
	}
	if g.r.Intn(3) == 0 {
		quals += "; " + head + " " + g.pick(ops) + " " + g.lit()
	}
	return head, quals
}

// join writes a join of <<pairs>> with another object whose pattern
// repeats names, shares them with the first generator's, or holds "_", a
// literal or a nested tuple, followed by one or two equalities between
// names either binds, either way round: the shapes a hash join must key
// on the right component of, or leave to the scan.
func (g *queryGen) join() string {
	names := []string{"a", "x", "k", "y", "y", "_"}
	var elem func(depth int) string
	elem = func(depth int) string {
		switch n := g.r.Intn(10); {
		case n == 0:
			return fmt.Sprint(g.r.Intn(5))
		case n == 1 && depth == 0:
			return "{" + elem(1) + ", " + elem(1) + "}"
		}
		return g.pick(names)
	}
	src, elems := g.pick([]string{"<<pairs>>", "<<t, n>>", "<<r, n>>", "<<U>>"}), []string{elem(0), elem(0)}
	if src == "<<U>>" {
		elems = append(elems, elem(0))
	}
	pat := "{" + strings.Join(elems, ", ") + "}"
	if g.r.Intn(6) == 0 {
		pat = g.pick(names)
	}
	q := "[{a, x} | {a, x} <- <<pairs>>; " + pat + " <- " + src
	for n := 1 + g.r.Intn(2); n > 0; n-- {
		rhs := g.pick(names[:5])
		if g.r.Intn(4) == 0 {
			rhs = "{" + rhs + ", " + g.pick(names[:5]) + "}"
		}
		q += "; " + g.pick(names[:5]) + " = " + rhs
	}
	return q + "]"
}

// selection writes a comprehension of the shape whose count a SQL source
// can take: one generator over a table's object, a bare name or a flat
// tuple of distinct names, filters comparing one of them with an int —
// often one of t's, where an operator and its neighbour part.
func (g *queryGen) selection(t Table) string {
	src := g.pick([]string{"<<t>>", "<<t, n>>", "<<t, n>>", "<<t, f>>", "<<t, s>>", "<<r, n>>"})
	pat, vars := "x", []string{"x"}
	if src != "<<t>>" && g.r.Intn(4) > 0 {
		pat, vars = "{k, v}", []string{"k", "v"}
	}
	quals := []string{pat + " <- " + src}
	for f := g.r.Intn(4); f > 0; f-- {
		v, lit, op := g.pick(vars), g.pick(lits[:7]), g.pick(ops[1:6])
		if n := t.Rows[g.r.Intn(len(t.Rows))][1]; n.Kind == iql.KindInt && g.r.Intn(2) == 0 {
			lit = fmt.Sprint(n.I())
		}
		if g.r.Intn(2) == 0 {
			quals = append(quals, lit+" "+op+" "+v)
		} else {
			quals = append(quals, v+" "+op+" "+lit)
		}
	}
	return "[" + g.pick(append(vars, "1")) + " | " + strings.Join(quals, "; ") + "]"
}

// queryGen writes comprehensions; bound holds the names the qualifiers
// written so far bind.
type queryGen struct {
	r     *rand.Rand
	bound []string
	big   bool // the comprehension scans <<big>>: no third generator, no nested head
}

// sources are what a generator draws from, with the arity of their
// elements' tuples (0: mostly no tuple).
var sources = []struct {
	text  string
	arity int
}{
	{"<<mixed>>", 0}, {"<<pairs>>", 2}, {"<<nums>>", 0}, {"<<empty>>", 0}, {"<<t>>", 0}, {"<<t, n>>", 2}, {"<<t, f>>", 2},
	{"<<t, s>>", 2}, {"<<r>>", 0}, {"<<r, n>>", 2}, {"<<r, f>>", 2}, {"<<r, s>>", 2}, {"<<U>>", 3},
	{"[1, 2.0, 'a', 2, 9007199254740993]", 0}, {"Void", 0},
}

var (
	names = []string{"a", "b", "k", "v", "x"}
	lits  = []string{"0", "1", "2", "5", "-1", "9007199254740992", "9007199254740993", "2.0", "2.5", "9007199254740992.0", "'a'", "True"}
	ops   = []string{"=", "=", "<", "<=", ">", ">=", "<>"}
)

func (g *queryGen) pick(from []string) string { return from[g.r.Intn(len(from))] }

func (g *queryGen) lit() string { return g.pick(lits) }

// name returns a name bound so far, now and then one that may not be.
func (g *queryGen) name() string {
	if len(g.bound) == 0 || g.r.Intn(30) == 0 {
		return g.pick(names)
	}
	return g.pick(g.bound)
}

func (g *queryGen) comp(depth int) string {
	head, quals := g.parts(depth)
	return "[" + head + " | " + quals + "]"
}

// parts writes a comprehension's head and its qualifiers.
func (g *queryGen) parts(depth int) (head, quals string) {
	mark := len(g.bound)
	defer func() { g.bound = g.bound[:mark] }()
	if depth == 0 {
		g.big = false
	}
	var qs []string
	for i, n := 0, 1+g.r.Intn(3-depth); i < n && !(i == 2 && g.big); i++ {
		src := sources[g.r.Intn(len(sources))]
		if i == 0 && depth == 0 && g.r.Intn(8) == 0 {
			src.text, src.arity, g.big = "<<big>>", 2, true
		}
		start := len(g.bound)
		qs = append(qs, g.pattern(src.arity, 0)+" <- "+src.text)
		for f := []int{0, 0, 0, 1, 1, 2}[g.r.Intn(6)]; f > 0; f-- {
			qs = append(qs, g.filter(g.bound[start:]))
		}
	}
	return g.head(depth), strings.Join(qs, "; ")
}

// pattern writes a pattern for elements of the given arity: mostly a
// tuple of names, some repeated or shared with an earlier generator,
// with the odd "_", literal or nested tuple; sometimes a bare name.
func (g *queryGen) pattern(arity, depth int) string {
	if arity == 0 || g.r.Intn(8) == 0 {
		switch g.r.Intn(10) {
		case 0:
			return g.pick([]string{"1", "2", "'a'"})
		case 1:
			arity = 2
		default:
			name := g.pick(names)
			g.bound = append(g.bound, name)
			return name
		}
	}
	elems := make([]string, arity)
	for i := range elems {
		switch n := g.r.Intn(12); {
		case n == 0:
			elems[i] = "_"
		case n == 1:
			elems[i] = g.pick([]string{"0", "1", "2", "'T'"})
		case n == 2 && depth == 0:
			elems[i] = g.pattern(2, 1)
		default:
			elems[i] = g.pick(names)
			g.bound = append(g.bound, elems[i])
		}
	}
	return "{" + strings.Join(elems, ", ") + "}"
}

// filter writes a comparison of a name the generator before it binds
// (one of own, when it binds any) with another name — a join — or with
// a literal, either way round; now and then a call or a boolean
// combination.
func (g *queryGen) filter(own []string) string {
	near := g.name()
	if len(own) > 0 && g.r.Intn(30) > 0 {
		near = g.pick(own)
	}
	switch g.r.Intn(10) {
	case 0:
		return "member(" + g.pick([]string{"<<t>>", "<<pairs>>", "[1, 2.0]"}) + ", " + near + ")"
	case 1:
		return "not (" + near + " = " + g.lit() + ") or " + g.name() + " < " + g.lit()
	case 2, 3, 4:
		return near + " " + g.pick(ops) + " " + g.name()
	case 5:
		return g.lit() + " " + g.pick(ops) + " " + near
	}
	return near + " " + g.pick(ops) + " " + g.lit()
}

// head writes what the comprehension yields: a name, a tuple, a sum, a
// call, or — not inside another — a nested comprehension or a count of
// one, correlated with the outer bindings.
func (g *queryGen) head(depth int) string {
	switch n := g.r.Intn(10); {
	case n < 3:
		return g.name()
	case n < 5:
		return "{" + g.name() + ", " + g.pick([]string{g.name(), g.lit()}) + "}"
	case n == 5:
		return g.name() + " + 1"
	case n == 6:
		return g.pick([]string{"abs", "tofloat", "tostring"}) + "(" + g.name() + ")"
	case depth == 0 && !g.big:
		inner := g.comp(1)
		if n == 7 {
			return "{" + g.name() + ", count(" + inner + ")}"
		}
		return inner
	}
	return g.name()
}
