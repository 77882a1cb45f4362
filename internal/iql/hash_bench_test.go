package iql

import (
	"fmt"
	"testing"
)

// Allocation-focused microbenchmarks for the hash-based value runtime:
// the structural hash itself and the three consumers that used to build
// canonical key strings per value (distinct, member filtering, and the
// comprehension join index).

// benchRows builds n {int, int, string} tuples with key locality.
func benchRows(n int) []Value {
	rows := make([]Value, n)
	for i := range rows {
		rows[i] = Tuple(Int(int64(i)), Int(int64(i%17)), Str(fmt.Sprintf("row-%d", i%64)))
	}
	return rows
}

func BenchmarkValueHash(b *testing.B) {
	v := Tuple(Int(42), Str("accession"), Bag(Int(1), Float(2.5), Str("x")), Tuple(Bool(true), Int(-7)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= v.Hash()
	}
	_ = sink
}

func BenchmarkDistinct(b *testing.B) {
	bag := BagOf(benchRows(1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distinct(bag); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemberFilter(b *testing.B) {
	// member() as a comprehension filter: for each element of t, test
	// membership of its key component in a 100-element bag.
	rows := benchRows(300)
	members := make([]Value, 100)
	for i := range members {
		members[i] = Int(int64(i % 17))
	}
	ext := ExtentsFunc(func(parts []string) (Value, error) {
		switch parts[0] {
		case "t":
			return BagOf(rows), nil
		case "m":
			return BagOf(members), nil
		}
		return Value{}, fmt.Errorf("unknown %q", parts[0])
	})
	e := MustParse("count([k | {k, x, s} <- <<t>>; member(<<m>>, x)])")
	ev := NewEvaluator(ext)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinIndexBuild(b *testing.B) {
	rows := benchRows(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := NewJoinIndex(rows, []int{1})
		if r := idx.Probe([]Value{Int(16)}); r != 16 {
			b.Fatalf("key 16 first at row %d", r)
		}
	}
}

// BenchmarkJoinIndexProbe walks the chain of every key of a built index,
// single and composite: what a join pays per outer binding.
func BenchmarkJoinIndexProbe(b *testing.B) {
	rows := benchRows(1000)
	for _, comps := range [][]int{{1}, {1, 2}} {
		b.Run(fmt.Sprintf("%dcomp", len(comps)), func(b *testing.B) {
			idx := NewJoinIndex(rows, comps)
			key := make([]Value, len(comps))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row, n := rows[i%len(rows)].Items(), 0
				for k, c := range comps {
					key[k] = row[c]
				}
				for r := idx.Probe(key); r >= 0; r = idx.Next(r) {
					n++
				}
				if n == 0 {
					b.Fatal("a row's own key found no row")
				}
			}
		})
	}
}
