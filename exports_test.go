package rowfuse_test

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

// testOnlyExports names the exported functions and methods under
// internal/ that no program calls, each with the reason it stays. Every
// other export must be named somewhere outside the tests, or go.
var testOnlyExports = map[string]string{
	"WithClock":         "clock seam: lease-expiry tests advance a fake clock",
	"WALWithClock":      "clock seam: WAL queue tests advance a fake clock",
	"SetClock":          "clock seam: DirQueue lease and registry retention tests advance a fake clock",
	"WithoutReplanning": "queue seam: tests pin the static unit plan",
	"WALWithoutSync":    "journal seam: tests skip fsync on throwaway journals",
	"WALCompactEvery":   "journal seam: tests force compaction at chosen points",
	"WithExactReplay":   "oracle switch: parity tests replay every act the fast path skips",
	"Disarm":            "fault points: tests clear a schedule they armed",
	"Fired":             "fault points: tests check that an injected fault fired",
	"Accumulated":       "property tests read a weak cell's accumulated dose",
	"Bins":              "property tests bound a sketch's bin count",
	"WithScenarioSet":   "TestEngineGoldens rows name their scenarios through it",
	"MarshalJSON":       "interface method: encoding/json calls it",
	"Unwrap":            "interface method: errors.Is and errors.As call it",
}

// TestNoTestOnlyExports fails on any exported function or method
// declared in a non-test file under internal/ whose name appears as an
// identifier in no non-test Go file of the repository, other than at its
// own declaration. cmd/, examples/ and e2ebench/ count as callers.
func TestNoTestOnlyExports(t *testing.T) {
	if len(testOnlyExports) > 14 {
		t.Fatalf("%d allowed test-only exports; the list is capped at 14", len(testOnlyExports))
	}
	fset := token.NewFileSet()
	uses := make(map[string]int)
	type export struct{ name, where string }
	var exports []export
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		own := make(map[*ast.Ident]bool)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				own[fd.Name] = true
				qual := f.Name.Name + "."
				if fd.Recv != nil {
					qual += recvName(fd.Recv.List[0].Type) + "."
				}
				exports = append(exports, export{fd.Name.Name, qual + fd.Name.Name + " (" + filepath.ToSlash(path) + ")"})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	bad := 0
	for _, e := range exports {
		if uses[e.name] > 0 {
			continue
		}
		where := e.where
		if why := testOnlyExports[e.name]; why != "" {
			where += " [allowed: " + why + "]"
		} else {
			bad++
		}
		unused = append(unused, where)
	}
	sort.Strings(unused)
	if bad > 0 {
		t.Errorf("%d exported functions have no caller outside tests and %d of them are not allowed; delete those, or move them into the test that uses them:\n\t%s",
			len(unused), bad, strings.Join(unused, "\n\t"))
	}
	for name := range testOnlyExports {
		if uses[name] > 0 {
			t.Errorf("%s now has a caller outside tests; drop it from testOnlyExports", name)
		}
	}
}

// recvName returns the type name of a method receiver.
func recvName(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
