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

// TestCitedArtifactsExist checks that every benchmark, serving or
// robustness artifact README.md and DESIGN.md cite exists at the root
// of the repository and parses as JSON, so every number the docs quote
// traces to a committed file. Fenced code blocks are skipped: the names
// there are files the shown commands write.
func TestCitedArtifactsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
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
			if fenced {
				continue
			}
			for _, name := range artifactName.FindAllString(line, -1) {
				b, err := os.ReadFile(name)
				if err != nil {
					t.Errorf("%s:%d cites %s: %v", doc, i+1, name, err)
					continue
				}
				if !json.Valid(b) {
					t.Errorf("%s:%d cites %s, which is not valid JSON", doc, i+1, name)
				}
			}
		}
	}
}
