package rowfuse_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams names, by qualified name, the declarations under internal/
// that no program reaches but tests need, each with the reason it stays.
// Everything else under internal/ must be reachable from a program, or
// go.
var testSeams = map[string]string{
	"dispatch.WithClock":          "clock seam: core's cadence tests and the lease-expiry tests advance a fake clock",
	"dispatch.WithoutReplanning":  "queue seam: core's cadence tests and the dispatch tests pin the static unit plan",
	"core.WithExactReplay":        "oracle switch: core and mitigation parity tests replay every act the fast path skips",
	"core.WithScenarioSet":        "TestEngineGoldens rows name their scenarios through it",
	"device.WeakCell.Accumulated": "core's bank parity tests read a weak cell's accumulated dose",
	"faultpoint.Disarm":           "fault points: dispatch tests clear a schedule they armed",
	"faultpoint.Fired":            "fault points: dispatch tests check that an injected fault fired",
	"bender.Engine.Trace":         "oracle: integration tests read the command stream a Bender program issued",
	"dramcmd.Trace.Validate":      "oracle: integration tests check that stream against the JEDEC timing rules",
}

// TestNoUnreachableCode fails on any function, method, type, variable or
// constant under internal/ that no program reaches, in either the default
// amd64 build or the purego build (which selects the same files as every
// other port). The programs are the main packages under cmd/, examples/
// and e2ebench/; see reachScan for how references are followed.
func TestNoUnreachableCode(t *testing.T) {
	if len(testSeams) > 14 {
		t.Fatalf("%d test seams allowed; the list is capped at 14", len(testSeams))
	}
	r, err := reachScan(".", "rowfuse", testSeams)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.unknown {
		t.Errorf("test seam %s names no declaration; drop it from testSeams", name)
	}
	for _, name := range r.reachedSeams {
		t.Errorf("a program now reaches test seam %s; drop it from testSeams", name)
	}
	if len(r.unreached) > 0 {
		t.Errorf("%d declarations under internal/ are reached by no program; delete them, or move them into the tests that use them:\n\t%s",
			len(r.unreached), strings.Join(r.unreached, "\n\t"))
	}
}

// reachResult is what reachScan finds: the unreached declarations under
// internal/ (qualified name and position), and the allowlist entries that
// a program reaches or that name no declaration.
type reachResult struct {
	unreached    []string
	reachedSeams []string
	unknown      []string
}

// reachBuilds are the build configurations reachScan checks. A
// declaration counts as reached if either build reaches it.
var reachBuilds = [][]string{nil, {"purego"}}

// reachScan type-checks every non-test package of the module at root
// (module path modPath, including the nested e2ebench module, whose path
// extends it) and follows references from the programs' roots: the main
// and init functions of the main packages under cmd/, examples/ and
// e2ebench/, the init functions and package-level variable initializers
// of every package they import, and the allowed seams. Calls through an
// interface are resolved conservatively, in the manner of Rapid Type
// Analysis: a method counts as reached when its type is reached and
// implements an interface whose method reached code calls, or one that
// the runtime or the standard library calls (stdlibCalled).
func reachScan(root, modPath string, allow map[string]string) (*reachResult, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	parsed := make(map[string]*ast.File)
	std := importer.ForCompiler(fset, "gc", nil)
	type declState struct {
		name    string
		reached bool
	}
	decls := make(map[string]*declState) // by position
	seamReached := make(map[string]bool)
	seamFound := make(map[string]bool)
	for _, tags := range reachBuilds {
		ctx := build.Default
		ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled, ctx.BuildTags = "linux", "amd64", false, tags
		l := &loader{fset: fset, ctx: &ctx, modPath: modPath, root: root, parsed: parsed, std: std, pkgs: make(map[string]*loadedPkg)}
		for _, rel := range dirs {
			if _, err := l.load(l.importPath(rel)); err != nil {
				return nil, err
			}
		}
		g, err := newReachGraph(l)
		if err != nil {
			return nil, err
		}
		g.run()
		// Marking a seam reaches nothing else until the next run, so
		// each seam is checked against what the programs alone reach.
		for obj := range g.decls {
			if name := g.qualName(obj); allow[name] != "" {
				seamFound[name] = true
				seamReached[name] = seamReached[name] || g.reached[obj]
				g.mark(obj)
			}
		}
		g.run()
		for obj, d := range g.decls {
			if !d.pkg.internal || obj.Name() == "_" || obj.Name() == "init" {
				continue
			}
			pos := fset.Position(obj.Pos()).String()
			st := decls[pos]
			if st == nil {
				st = &declState{name: g.qualName(obj) + " (" + relPos(root, fset.Position(obj.Pos())) + ")"}
				decls[pos] = st
			}
			st.reached = st.reached || g.reached[obj]
		}
	}
	r := &reachResult{}
	for _, st := range decls {
		if !st.reached {
			r.unreached = append(r.unreached, st.name)
		}
	}
	for name := range allow {
		if !seamFound[name] {
			r.unknown = append(r.unknown, name)
		} else if seamReached[name] {
			r.reachedSeams = append(r.reachedSeams, name)
		}
	}
	sort.Strings(r.unreached)
	sort.Strings(r.reachedSeams)
	sort.Strings(r.unknown)
	return r, nil
}

// packageDirs lists, relative to root and slash-separated, every
// directory holding a non-test Go file, skipping dot-directories and
// testdata.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		if rel = filepath.ToSlash(rel); !seen[rel] {
			seen[rel] = true
			dirs = append(dirs, rel)
		}
		return nil
	})
	return dirs, err
}

func relPos(root string, p token.Position) string {
	if rel, err := filepath.Rel(root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// loadedPkg is one type-checked package of one build.
type loadedPkg struct {
	pkg      *types.Package
	files    []*ast.File
	info     *types.Info
	program  bool // a main package under cmd/, examples/ or e2ebench/
	internal bool // under internal/
}

// loader type-checks the module's packages for one build, importing the
// standard library from export data.
type loader struct {
	fset    *token.FileSet
	ctx     *build.Context
	modPath string
	root    string
	parsed  map[string]*ast.File
	std     types.Importer
	pkgs    map[string]*loadedPkg
}

func (l *loader) importPath(rel string) string {
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + rel
}

func (l *loader) Import(p string) (*types.Package, error) {
	if p != l.modPath && !strings.HasPrefix(p, l.modPath+"/") {
		return l.std.Import(p)
	}
	lp, err := l.load(p)
	if err != nil {
		return nil, err
	}
	return lp.pkg, nil
}

func (l *loader) load(importPath string) (*loadedPkg, error) {
	if lp, ok := l.pkgs[importPath]; ok {
		if lp == nil {
			return nil, fmt.Errorf("import cycle through %s", importPath)
		}
		return lp, nil
	}
	l.pkgs[importPath] = nil
	rel := "."
	if importPath != l.modPath {
		rel = strings.TrimPrefix(importPath, l.modPath+"/")
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctx.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		p := filepath.Join(dir, name)
		f := l.parsed[p]
		if f == nil {
			if f, err = parser.ParseFile(l.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.parsed[p] = f
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctx.GOARCH)}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	top := strings.SplitN(rel, "/", 2)[0]
	lp := &loadedPkg{
		pkg:      pkg,
		files:    files,
		info:     info,
		program:  pkg.Name() == "main" && (top == "cmd" || top == "examples" || top == "e2ebench"),
		internal: top == "internal",
	}
	l.pkgs[importPath] = lp
	return lp, nil
}

// reachDecl is one package-level declaration: the syntax its references
// are read from, and the package that declares it.
type reachDecl struct {
	node ast.Node
	pkg  *loadedPkg
}

// reachGraph follows references through one build's packages.
type reachGraph struct {
	decls   map[types.Object]*reachDecl
	reached map[types.Object]bool
	queue   []types.Object
	types   []*types.Named                       // reached named types, in order
	called  map[*types.Interface]map[string]bool // interface methods reached code calls
	inits   []reachDecl                          // initializers that run in some program
}

func newReachGraph(l *loader) (*reachGraph, error) {
	g := &reachGraph{
		decls:   make(map[types.Object]*reachDecl),
		reached: make(map[types.Object]bool),
		called:  make(map[*types.Interface]map[string]bool),
	}
	for _, lp := range l.pkgs {
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					g.add(lp.info.Defs[decl.Name], &reachDecl{decl, lp})
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							g.add(lp.info.Defs[spec.Name], &reachDecl{spec, lp})
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								g.add(lp.info.Defs[name], &reachDecl{spec, lp})
							}
						}
					}
				}
			}
		}
	}
	called, err := stdlibCalled(l.std)
	if err != nil {
		return nil, err
	}
	for _, iface := range called {
		for i := 0; i < iface.NumMethods(); i++ {
			g.call(iface, iface.Method(i).Name())
		}
	}
	// Roots: every program's main and init functions, and the
	// initializers of every package a program imports.
	imported := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if imported[p] {
			return
		}
		imported[p] = true
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, lp := range l.pkgs {
		if lp.program {
			visit(lp.pkg)
		}
	}
	for obj, d := range g.decls {
		if !imported[d.pkg.pkg] {
			continue
		}
		switch node := d.node.(type) {
		case *ast.FuncDecl:
			if node.Recv == nil && (node.Name.Name == "init" || d.pkg.program && node.Name.Name == "main") {
				g.mark(obj)
			}
		case *ast.ValueSpec:
			if _, ok := obj.(*types.Var); ok {
				for _, v := range node.Values {
					g.inits = append(g.inits, reachDecl{v, d.pkg})
				}
				if obj.Name() == "_" {
					g.mark(obj)
				}
			}
		}
	}
	return g, nil
}

func (g *reachGraph) add(obj types.Object, d *reachDecl) {
	if obj != nil {
		g.decls[obj] = d
	}
}

// stdlibCalled returns the interfaces whose methods the runtime or the
// standard library call on values handed to them.
func stdlibCalled(std types.Importer) ([]*types.Interface, error) {
	named := []struct{ pkg, name string }{
		{"encoding/json", "Marshaler"},
		{"fmt", "Stringer"},
		{"io", "Writer"},
		{"net/http", "Handler"},
		{"sort", "Interface"},
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, n := range named {
		p, err := std.Import(n.pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Scope().Lookup(n.name).Type().Underlying().(*types.Interface))
	}
	// errors.Is and errors.As walk a chain through Unwrap.
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))
	out = append(out, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	return out, nil
}

// mark records obj as reached and queues its declaration.
func (g *reachGraph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				g.call(iface, o.Name())
				return
			}
		}
	case *types.Var:
		obj = o.Origin()
	}
	d := g.decls[obj]
	if d == nil || g.reached[obj] {
		return
	}
	g.reached[obj] = true
	g.queue = append(g.queue, obj)
	if tn, ok := obj.(*types.TypeName); ok {
		if n, ok := tn.Type().(*types.Named); ok {
			if _, isIface := n.Underlying().(*types.Interface); !isIface {
				g.types = append(g.types, n)
			}
		}
	}
}

// call records that reached code calls method name of iface.
func (g *reachGraph) call(iface *types.Interface, name string) {
	if g.called[iface] == nil {
		g.called[iface] = make(map[string]bool)
	}
	g.called[iface][name] = true
}

// run follows references until nothing new is reached.
func (g *reachGraph) run() {
	for {
		for len(g.queue) > 0 {
			obj := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			d := g.decls[obj]
			g.walk(d.node, d.pkg.info)
		}
		for _, in := range g.inits {
			g.walk(in.node, in.pkg.info)
		}
		g.inits = nil
		// Interface dispatch: a reached type's method is reached when
		// the type implements an interface whose method is called.
		for _, n := range g.types {
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				ms := types.NewMethodSet(t)
				for iface, names := range g.called {
					if !implements(t, iface) {
						continue
					}
					for name := range names {
						for i := 0; i < ms.Len(); i++ {
							if m := ms.At(i).Obj(); m.Name() == name {
								g.mark(m)
							}
						}
					}
				}
			}
		}
		if len(g.queue) == 0 {
			return
		}
	}
}

// implements reports whether t implements iface. A generic type, or a
// constraint, counts as implementing it when t has every method iface
// names.
func implements(t types.Type, iface *types.Interface) bool {
	n, _ := types.Unalias(t).(*types.Named)
	if p, ok := t.(*types.Pointer); ok {
		n, _ = types.Unalias(p.Elem()).(*types.Named)
	}
	if (n == nil || n.TypeParams().Len() == 0) && iface.IsMethodSet() {
		return types.Implements(t, iface)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if ms.Lookup(m.Pkg(), m.Name()) == nil {
			return false
		}
	}
	return true
}

// walk marks every package-level object and method that node refers to.
func (g *reachGraph) walk(node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				g.mark(obj)
			}
		}
		return true
	})
}

// qualName names obj as package.Name or package.Type.Method.
func (g *reachGraph) qualName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				name += n.Obj().Name() + "."
			}
		}
	}
	return name + obj.Name()
}

// TestReachScanFindsPlantedCode runs reachScan over a small module and
// requires exactly the planted findings: two the name matcher missed (a
// helper only a dead function calls, and a method that shares its name
// with a reached method of another type) and none of the three ways a
// declaration is reached without a direct call from a program.
func TestReachScanFindsPlantedCode(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module synth\n\ngo 1.24\n",
		"cmd/app/main.go": `package main

import (
	"fmt"

	"synth/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{}
	fmt.Println(s.Area(), lib.Kernel(), lib.Circle{}.Perimeter(), lib.Triangle{}, lib.Label{}, lib.Used())
}
`,
		"internal/lib/lib.go": `package lib

type Shape interface{ Area() float64 }

type Square struct{}

func (Square) Area() float64 { return 1 }

type Circle struct{}

func (Circle) Perimeter() float64 { return 2 }

type Triangle struct{}

func (Triangle) Perimeter() float64 { return 3 }

func Dead() int { return helper() }

func helper() int { return 4 }

type Label struct{}

func (Label) String() string { return "label" }

func Seam() int { return 5 }

func Used() int { return 6 }

func pureHelper() int { return 7 }
`,
		"internal/lib/kernel_purego.go": `//go:build purego

package lib

func Kernel() int { return pureHelper() }
`,
		"internal/lib/kernel_default.go": `//go:build !purego

package lib

func Kernel() int { return 8 }
`,
	}
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := reachScan(dir, "synth", map[string]string{"lib.Seam": "tests", "lib.Used": "tests", "lib.Gone": "tests"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range r.unreached {
		got = append(got, strings.SplitN(u, " ", 2)[0])
	}
	if want := []string{"lib.Dead", "lib.Triangle.Perimeter", "lib.helper"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("unreached = %v, want %v", r.unreached, want)
	}
	if strings.Join(r.reachedSeams, ",") != "lib.Used" || strings.Join(r.unknown, ",") != "lib.Gone" {
		t.Errorf("seams reached by the program %v and naming nothing %v, want [lib.Used] and [lib.Gone]", r.reachedSeams, r.unknown)
	}
}
