// Doclint fails the build when an exported symbol has no doc
// comment.
//
// Usage:
//
//	go run ./scripts/doclint [packages...]
//
// With no arguments it checks gpgpumem.go and every package under
// internal/. Each argument is a .go file or a package directory;
// _test.go files are always skipped.
//
// The check is the classic golint/staticcheck missing-doc rule,
// go-vet-adjacent and dependency-free: every exported package-level
// type, function, method, constant and variable must carry a doc
// comment (a group doc on a const/var block covers its members), and
// every checked package must have a package comment. Violations are
// printed as file:line: messages and the program exits 1.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// defaultTargets is the library facade plus every package directory
// under internal/ (a directory holding at least one non-test .go
// file).
func defaultTargets() ([]string, error) {
	targets := []string{"gpgpumem.go"}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			if dir := filepath.Dir(path); !slices.Contains(targets, dir) {
				targets = append(targets, dir)
			}
		}
		return nil
	})
	return targets, err
}

func main() {
	targets := os.Args[1:]
	if len(targets) == 0 {
		var err error
		if targets, err = defaultTargets(); err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
	}
	var problems []string
	for _, t := range targets {
		p, err := lintTarget(t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported symbol(s)\n", len(problems))
		os.Exit(1)
	}
}

// lintTarget checks one command-line target — a single .go file or a
// package directory — and returns its violations.
func lintTarget(target string) ([]string, error) {
	info, err := os.Stat(target)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	if info.IsDir() {
		entries, err := os.ReadDir(target)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(target, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	} else {
		f, err := parser.ParseFile(fset, target, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files to check", target)
	}
	var problems []string
	hasPackageDoc := false
	for _, f := range files {
		if f.Doc != nil {
			hasPackageDoc = true
		}
		problems = append(problems, lintFile(fset, f)...)
	}
	if !hasPackageDoc {
		problems = append(problems,
			fmt.Sprintf("%s: package %s has no package comment", target, files[0].Name.Name))
	}
	return problems, nil
}

// lintFile reports every exported package-level declaration in one
// file that lacks a doc comment.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if recv := receiverType(d); recv != "" {
				// An unexported receiver type makes the method
				// unreachable outside the package regardless of its
				// own name.
				if !ast.IsExported(recv) {
					continue
				}
				report(d.Pos(), "exported method %s.%s is undocumented", recv, d.Name.Name)
			} else {
				report(d.Pos(), "exported function %s is undocumented", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "exported type %s is undocumented", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc on the const/var block, on the spec, or a
					// trailing line comment all count — those are the
					// three places godoc renders.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report(name.Pos(), "exported %s %s is undocumented", declKind(d.Tok), name.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverType returns the bare type name of a method receiver
// ("Coordinator" for *Coordinator), or "" for a plain function.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// declKind names a GenDecl token for messages ("const" or "var").
func declKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
