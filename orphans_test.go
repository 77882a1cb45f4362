package automed

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSupportExports are the exported functions and types under
// internal/ that no non-test code names outside their own declaration:
// tests lean on them as helpers. The list may shrink and never grows —
// an export nothing takes is deleted, not listed.
var testSupportExports = map[string]bool{
	"AppendJSONAndText":  true, // iql: the one-walk reference the encoded evaluation is held to
	"ClassicalExpected":  true, // ispider: the classical plan's expected counts
	"MustParse":          true, // iql
	"MustScheme":         true, // hdm
	"NewEvaluator":       true, // iql: the plain evaluator differentials compare against
	"PlanManualTotal":    true, // ispider: the paper's 26
	"QueryByID":          true, // ispider
	"SetDelay":           true, // sqlmem: a slow backend
	"SetNoPK":            true, // sqlmem: a catalog without primary keys
	"Table1WarmConfig":   true, // ispider: the sizes BenchmarkServerTable1 shares with table1_warm
	"ValidateExposition": true, // obs: the Prometheus text format checker
}

// TestNoNewOrphanExports is the ratchet behind ISSUE 22: every exported
// package-level function and type declared in a non-test file under
// internal/ is named by non-test code of the tree somewhere outside its
// own declaration (cmd/, examples/, the root package and bench/ count
// as callers) or in testSupportExports. The helper packages wrappertest
// and iqltest exist for tests and are excepted. Matching is by
// identifier, so it can miss an orphan that shares its name with
// something used; it cannot flag a used one.
func TestNoNewOrphanExports(t *testing.T) {
	type decl struct{ name, file string }
	var decls []decl
	named := map[string]bool{} // identifiers used outside a declaration of their own
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		declares := strings.HasPrefix(slash, "internal/") &&
			!strings.Contains(slash, "/wrappertest/") && !strings.Contains(slash, "/iqltest/")
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					own[d.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						own[ts.Name] = true
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if own[id] {
				if declares && id.IsExported() {
					decls = append(decls, decl{id.Name, slash})
				}
				return true
			}
			named[id.Name] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		declared[d.name] = true
		if !named[d.name] && !testSupportExports[d.name] {
			orphans = append(orphans, d.name+" ("+d.file+")")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported and named by no non-test code: %s — delete it, or unexport it", o)
	}
	for name := range testSupportExports {
		if !declared[name] {
			t.Errorf("testSupportExports names %s, which internal/ no longer declares: remove the entry", name)
		}
	}
}
