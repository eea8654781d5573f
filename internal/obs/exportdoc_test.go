package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestExportedDocComments is the repo's exported-identifier comment
// check (the revive `exported` rule, self-hosted so CI needs no extra
// tool): every exported top-level type, function, method, constant and
// variable in the audited packages must carry a doc comment. It runs as
// part of `go test ./...`, which the CI workflow executes on every
// push, so missing comments fail the build.
func TestExportedDocComments(t *testing.T) {
	for _, dir := range []string{".", "../serve", "../stats", "../fault", "../run", "../daemon", "../cluster", "../tune", "../.."} {
		checkPackageDocs(t, dir)
	}
}

// checkPackageDocs parses one package directory (tests excluded) and
// reports every undocumented exported declaration.
func checkPackageDocs(t *testing.T, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				checkDecl(t, fset, decl)
			}
		}
	}
}

// checkDecl flags an undocumented exported declaration.
func checkDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s %s has no doc comment",
				fset.Position(d.Pos()), declKind(d), d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					t.Errorf("%s: exported type %s has no doc comment",
						fset.Position(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						t.Errorf("%s: exported %s has no doc comment",
							fset.Position(s.Pos()), name.Name)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a function is free-standing or a
// method on an exported type (methods on unexported types are internal
// API and exempt, matching revive).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// declKind names a FuncDecl for the error message.
func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}
