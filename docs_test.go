package repro

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryExportedIdentifierIsDocumented walks the whole module and
// fails on any exported type, function, method, or package-level
// variable/constant without a doc comment — the documentation
// deliverable, enforced.
func TestEveryExportedIdentifierIsDocumented(t *testing.T) {
	var missing []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "results" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					missing = append(missing, path+": func "+dd.Name.Name)
				}
			case *ast.GenDecl:
				groupDocumented := dd.Doc != nil
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDocumented && sp.Doc == nil && sp.Comment == nil {
							missing = append(missing, path+": type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && !groupDocumented && sp.Doc == nil && sp.Comment == nil {
								missing = append(missing, path+": value "+n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Errorf("undocumented exported identifier: %s", m)
	}
}

// TestEveryPackageHasDocComment checks each package has a package-level
// doc comment somewhere.
func TestEveryPackageHasDocComment(t *testing.T) {
	documented := map[string]bool{}
	packages := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "results" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		packages[dir] = f.Name.Name
		if f.Doc != nil {
			documented[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, pkg := range packages {
		if !documented[dir] {
			t.Errorf("package %s (%s) has no package doc comment", pkg, dir)
		}
	}
}

// artifactName matches a committed measurement artifact's file name.
var artifactName = regexp.MustCompile(`\b(?:BENCH|SERVE|ROBUST)_[A-Za-z0-9_]+\.json\b`)

// proseLines calls fn with every line of doc outside fenced code
// blocks, numbered from 1.
func proseLines(t *testing.T, doc string, fn func(line int, text string)) {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	fenced := false
	for i, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			fn(i+1, line)
		}
	}
}

// TestCitedArtifactsExist checks that every benchmark, serving or
// robustness artifact README.md, DESIGN.md, the scripts and the
// Makefile cite exists at the root of the repository and parses as
// JSON, so every number the docs quote and every baseline a script
// defaults to traces to a committed file. Fenced code blocks in the
// Markdown files are skipped: the names there are files the shown
// commands write.
func TestCitedArtifactsExist(t *testing.T) {
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) == 0 {
		t.Fatal("no scripts/*.sh found")
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md", "Makefile"}, scripts...) {
		proseLines(t, doc, func(line int, text string) {
			for _, name := range artifactName.FindAllString(text, -1) {
				b, err := os.ReadFile(name)
				if err != nil {
					t.Errorf("%s:%d cites %s: %v", doc, line, name, err)
					continue
				}
				if !json.Valid(b) {
					t.Errorf("%s:%d cites %s, which is not valid JSON", doc, line, name)
				}
			}
		})
	}
}

var (
	// codeSpan matches one inline code span of a Markdown line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// pkgIdent matches pkg.Ident inside a code span, where pkg starts
	// the span, follows a non-identifier character, or follows
	// "internal/"; path components such as "delta/patch.go" do not match.
	pkgIdent = regexp.MustCompile(`(?:^|[^\w/.]|internal/)([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)
)

// topLevelNames returns the names of the top-level functions, types,
// variables and constants declared in dir's non-test Go files. Methods
// are not top-level and are left out.
func topLevelNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						names[sp.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocIdentifiersResolve checks that every backticked pkg.Ident in
// README.md and DESIGN.md, where pkg is a package under internal/,
// names a top-level declaration of that package, so deleting or
// renaming an identifier cannot leave the docs pointing at nothing.
// Only the first identifier after the package is checked: in
// `metric.Dense.NearestLists` that is Dense.
func TestDocIdentifiersResolve(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			decls[e.Name()] = topLevelNames(t, filepath.Join("internal", e.Name()))
		}
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		proseLines(t, doc, func(line int, text string) {
			for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
				for _, m := range pkgIdent.FindAllStringSubmatch(span[1], -1) {
					names, ok := decls[m[1]]
					if !ok {
						continue
					}
					checked++
					if !names[m[2]] {
						t.Errorf("%s:%d cites %s.%s, which internal/%s does not declare", doc, line, m[1], m[2], m[1])
					}
				}
			}
		})
	}
	if checked == 0 {
		t.Error("no backticked pkg.Ident found; the pattern has gone stale")
	}
}
