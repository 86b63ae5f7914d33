// Package analysis is the repo's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, diagnostics) plus a package loader that
// type-checks module packages against the build cache's export data, so
// project-specific contract checkers run with full type information
// using nothing but the standard library and the go command.
//
// The analyzers themselves live in subpackages (maporder, bitsetrelease,
// atomicswap, ctxflow); cmd/graphlint is the multichecker
// driver that CI runs as a hard gate. See doc.go for the contract each
// analyzer enforces and the //lint:allow escape hatch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named contract check. It mirrors the x/tools
// analysis.Analyzer surface that the repo's checks need: a Run function
// invoked once per loaded package with a Pass carrying the syntax and
// type information.
type Analyzer struct {
	// Name identifies the analyzer in findings, flags and
	// //lint:allow directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph contract description shown by
	// graphlint -help.
	Doc string
	// Run executes the check and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with a single package's syntax,
// types, and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding before position resolution.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is one resolved, attributed diagnostic.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// allowDirective matches the escape hatch: a comment of the form
//
//	//lint:allow <analyzer>[,<analyzer>...] [justification]
//
// placed on the flagged line or the line directly above it. Exceptions
// are intentional and rare; the justification should say why the
// contract does not apply at this site.
var allowDirective = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_,]+)`)

// allowedLines maps line number -> analyzer names suppressed on that
// line for one file. A directive covers its own line (trailing comment)
// and the line below it (comment above the statement).
func allowedLines(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	var out map[int]map[string]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowDirective.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			if out == nil {
				out = make(map[int]map[string]bool)
			}
			line := fset.Position(c.Pos()).Line
			for _, name := range strings.Split(m[1], ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				for _, l := range [2]int{line, line + 1} {
					if out[l] == nil {
						out[l] = make(map[string]bool)
					}
					out[l][name] = true
				}
			}
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to each package, resolves
// positions, drops findings suppressed by //lint:allow directives, and
// returns the remainder sorted by position. Analyzer errors (not
// findings) are returned after all packages run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	var errs []string
	for _, pkg := range pkgs {
		// One suppression map per file, built lazily: most files carry
		// no directives.
		allow := make(map[*ast.File]map[int]map[string]bool, len(pkg.Files))
		fileFor := func(pos token.Pos) *ast.File {
			for _, f := range pkg.Files {
				if f.FileStart <= pos && pos < f.FileEnd {
					return f
				}
			}
			return nil
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.TypesInfo,
			}
			pass.report = func(d Diagnostic) {
				position := pkg.Fset.Position(d.Pos)
				if f := fileFor(d.Pos); f != nil {
					lines, ok := allow[f]
					if !ok {
						lines = allowedLines(pkg.Fset, f)
						allow[f] = lines
					}
					if lines != nil {
						for _, l := range [2]int{position.Line, position.Line - 1} {
							if lines[l][a.Name] {
								return
							}
						}
					}
				}
				findings = append(findings, Finding{
					Position: position,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %s: %v", a.Name, pkg.PkgPath, err))
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	if len(errs) > 0 {
		return findings, fmt.Errorf("analyzer errors:\n  %s", strings.Join(errs, "\n  "))
	}
	return findings, nil
}

// NamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func NamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for indirect calls, builtins and
// type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Signature().Recv() == nil
}
