package obs

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names exported functions and methods under internal/
// and cmd/ that may have no caller outside tests, each with its reason:
// a helper that tests of several packages share, or a path the paper
// models. The root facil package is the module's public API and is not
// audited.
var testOnlyAllowed = map[string]string{
	"dram.Addr.GlobalBank":     "bank-identity helper shared by the dram, mapping and vm tests",
	"vm.AddressSpace.Alloc":    "the 4 KB page path of the paper's Fig. 7 mixed page table",
	"stats.TimeHist.TotalTime": "serve tests check that QueueDepth spans the makespan with it",
}

// implicitIfaces are standard-library interfaces whose methods the
// standard library calls for us, so no use of them shows in this module.
var implicitIfaces = [][2]string{{"fmt", "Stringer"}, {"", "error"}}

// TestNoTestOnlyExports fails when an exported function or method under
// internal/ or cmd/ is used only by tests: production packages carry
// only production code. It type-checks every non-test package of the
// module and of bench/ (standard library from source) and counts the
// uses each function gets. A method also counts as used when it
// implements a used method of an interface, or fmt.Stringer or error.
func TestNoTestOnlyExports(t *testing.T) {
	l := loadModule(t)
	fset := l.fset
	used := map[*types.Func]bool{}
	ifaceUsed := map[*types.Func]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUsed[fn] = true
			}
		}
	}
	for _, ii := range implicitIfaces {
		scope := types.Universe
		if ii[0] != "" {
			pkg, err := l.std.Import(ii[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		iface := scope.Lookup(ii[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceUsed[iface.Method(i)] = true
		}
	}
	implementsUsed := func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return false
		}
		recv := sig.Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv) // *T has T's methods too
		}
		for m := range ifaceUsed {
			if m.Name() != fn.Name() {
				continue
			}
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	allowed := map[string]bool{}
	for path, p := range l.pkgs {
		rel := strings.TrimPrefix(path, "facil/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for _, fn := range p.funcs {
			if used[fn] || implementsUsed(fn) {
				continue
			}
			name := p.pkg.Name() + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				typ := recv.Type()
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				name = p.pkg.Name() + "." + typ.(*types.Named).Obj().Name() + "." + fn.Name()
			}
			if _, ok := testOnlyAllowed[name]; ok {
				allowed[name] = true
			} else {
				unused = append(unused, fset.Position(fn.Pos()).String()+": "+name)
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but used only by tests: delete it or move it into a _test.go file", u)
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			t.Errorf("testOnlyAllowed entry %s is gone or has a production caller: drop the entry", name)
		}
	}
}

// unsetFieldAllowed names exported config-struct fields that no
// non-test code writes but that stay, each with its reason.
var unsetFieldAllowed = map[string]string{
	"fault.Scenario.LaneWindows":           "serve's policy tests and the differential grid place deterministic outages with it",
	"pim.Config.Chunk":                     "DefaultAiM and DefaultHBMPIM give it two values",
	"soc.LayoutSlowdownConfig.SampleBytes": "soc's and exp's tests shrink the 4 MiB default window to 256 KiB–2 MiB to stay fast",
	// bench/ is changed only with the benchmark, so these wait for it.
	"exp.ClusterConfig.Workload":               benchReads,
	"exp.ClusterConfig.BreakerThreshold":       benchReads,
	"exp.ClusterConfig.BreakerCooldown":        benchReads,
	"exp.ClusterConfig.DeviceBreakerThreshold": benchReads,
	"exp.ClusterConfig.FaultMTTR":              benchReads,
	"exp.ClusterConfig.FaultFraction":          benchReads,
	"exp.MapTuneConfig.Platforms":              benchReads,
	"exp.MapTuneConfig.Workloads":              benchReads,
	"exp.MapTuneConfig.TopK":                   benchReads,
	"exp.MapTuneConfig.EstWindow":              benchReads,
	"exp.MapTuneConfig.SampleBytes":            benchReads,
}

// benchReads is the reason for a default-only field that bench/ reads.
const benchReads = "read by bench/; fold into a constant with the next benchmark change"

// isDefaultFunc reports whether a function name marks a default
// constructor or filler: Default*, defaults and withDefaults.
func isDefaultFunc(name string) bool {
	return strings.HasPrefix(name, "Default") || name == "defaults" || name == "withDefaults"
}

// isConfigStruct reports whether a type name marks a config struct: the
// types named *Config, Scenario, Options and ExecOpts.
func isConfigStruct(name string) bool {
	return strings.HasSuffix(name, "Config") || name == "Scenario" || name == "Options" || name == "ExecOpts"
}

// TestNoUnsetConfigFields fails when an exported field of a config
// struct under internal/ is written by no non-test code of the module
// or of bench/: a setting nothing sets is dead weight, and its zero
// value belongs in the code as a constant. A write is a composite-
// literal element, an assignment or increment, or taking the field's
// address (as a flag binding does). A write inside a Default*, defaults
// or withDefaults function of the field's own package does not count:
// a setting only its default writes has one value, a constant too.
func TestNoUnsetConfigFields(t *testing.T) {
	l := loadModule(t)
	fields := map[*types.Var]string{}
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, "facil/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isConfigStruct(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = p.pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		// inDefault holds while the walk is inside one of this
		// package's default functions.
		inDefault := false
		write := func(v *types.Var) {
			if v = v.Origin(); !inDefault || v.Pkg() != p.pkg {
				written[v] = true
			}
		}
		field := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					write(s.Obj().(*types.Var))
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				inDefault = ok && isDefaultFunc(fd.Name.Name)
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, e := range n.Elts {
							kv, ok := e.(*ast.KeyValueExpr)
							if !ok {
								write(st.Field(i))
							} else if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								write(v)
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							field(lhs)
						}
					case *ast.IncDecStmt:
						field(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							field(n.X)
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	allowed := map[string]bool{}
	for f, name := range fields {
		if written[f] {
			continue
		}
		if _, ok := unsetFieldAllowed[name]; ok {
			allowed[name] = true
		} else {
			unset = append(unset, l.fset.Position(f.Pos()).String()+": "+name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is a config field no non-test code sets: make it a constant or delete it", u)
	}
	for name := range unsetFieldAllowed {
		if !allowed[name] {
			t.Errorf("unsetFieldAllowed entry %s is gone or has a production writer: drop the entry", name)
		}
	}
}

// loadModule type-checks every non-test package of the module and of
// bench/ (standard library from source).
func loadModule(t *testing.T) *loader {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	// Type-check the pure-Go variant of every package, so the source
	// importer needs no C toolchain for the standard library's cgo files.
	defer func(old bool) { build.Default.CgoEnabled = old }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{root: root, fset: fset, pkgs: map[string]*loaded{},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err != nil {
			return nil // no buildable non-test Go files here
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.load(filepath.ToSlash(filepath.Join("facil", rel)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// loaded is one type-checked non-test package.
type loaded struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	funcs []*types.Func // exported top-level functions and methods
}

// loader type-checks the module's packages from their non-test files,
// once each, so every use of a function resolves to the same object.
type loader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*loaded
}

// Import resolves module paths to the loader's own packages and
// everything else to the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != "facil" && !strings.HasPrefix(path, "facil/") {
		return l.std.ImportFrom(path, l.root, 0)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks the non-test files of one module package.
// The bench module (facil/bench) lives in the bench/ directory, so both
// modules map import path to directory the same way.
func (l *loader) load(path string) (*loaded, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "facil"), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loaded{pkg: pkg, info: info, files: files}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				p.funcs = append(p.funcs, info.Defs[fd.Name].(*types.Func))
			}
		}
	}
	l.pkgs[path] = p
	return p, nil
}
