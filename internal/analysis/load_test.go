package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot locates the module root relative to this source file so the
// loader tests work regardless of the test working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate caller")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func mustParse(t *testing.T, fset *token.FileSet, name, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLoadTypeChecksPackage(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "blinkradar/internal/dsp")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "blinkradar/internal/dsp" {
		t.Fatalf("import path = %q", p.ImportPath)
	}
	if len(p.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", p.TypeErrors)
	}
	if len(p.Files) == 0 || p.Types == nil {
		t.Fatal("package not populated")
	}
	if obj := p.Types.Scope().Lookup("MovingAverage"); obj == nil {
		t.Fatal("MovingAverage not in package scope")
	}
	if len(p.Info.Uses) == 0 {
		t.Fatal("no type info recorded")
	}
}

func TestLoadResolvesInternalImports(t *testing.T) {
	// core imports dsp, iq and rf; export-data importing must resolve
	// module-local packages, not only the standard library.
	pkgs, err := Load(repoRoot(t), "blinkradar/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkgs[0].TypeErrors)
	}
}

func TestSuppressionFiltering(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

//blinkvet:ignore demo -- amortised growth
var x = 1

var y = 2
`
	f := mustParse(t, fset, "demo.go", src)
	diags := []Diagnostic{
		{Analyzer: "demo", Pos: fset.Position(f.Decls[0].Pos()), Message: "on annotated line's successor"},
		{Analyzer: "other", Pos: fset.Position(f.Decls[0].Pos()), Message: "different analyzer"},
		{Analyzer: "demo", Pos: fset.Position(f.Decls[1].Pos()), Message: "unrelated line"},
	}
	got := filterSuppressed(fset, []*ast.File{f}, diags)
	if len(got) != 2 {
		t.Fatalf("got %d diagnostics after filtering, want 2: %v", len(got), got)
	}
	for _, d := range got {
		if d.Message == "on annotated line's successor" {
			t.Fatalf("suppressed diagnostic survived: %v", d)
		}
	}
}
