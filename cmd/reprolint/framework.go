package main

// The analyzer framework: findings with positions and //lint:ignore
// suppression. Analyzers are deliberately small — each one encodes exactly
// one invariant the hot paths of this repository depend on.

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one invariant check: one function over the whole loaded package
// set.
type Analyzer struct {
	// Name is the check name used in findings and //lint:ignore directives.
	Name string
	// Doc says what the check flags, and the mutation only it catches.
	Doc string
	// Run inspects the loaded module and reports findings through the pass.
	Run func(m *ModulePass)
}

// ModulePass is one analyzer's view of the loaded package set: the call graph
// over it.
type ModulePass struct {
	Fset  *token.FileSet
	Graph *CallGraph

	check    string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (m *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*m.findings = append(*m.findings, Finding{
		Check: m.check,
		Pos:   m.Fset.Position(pos),
		Msg:   fmt.Sprintf(format, args...),
	})
}

// typeOfIn returns the static type of e in package p, or nil.
func typeOfIn(p *Package, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Finding is one reported invariant violation.
type Finding struct {
	Check string
	Pos   token.Position
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	checks []string // check names the directive suppresses
	valid  bool     // false: missing check name or reason
}

// collectIgnores parses every //lint:ignore directive in the loaded files,
// keyed by filename and then by the directive's own line.
func collectIgnores(fset *token.FileSet, pkgs []*Package) map[string]map[int][]*ignoreDirective {
	out := make(map[string]map[int][]*ignoreDirective)
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					d := &ignoreDirective{pos: pos}
					// Valid form: //lint:ignore check1,check2 reason...
					fields := strings.Fields(rest)
					if strings.HasPrefix(rest, " ") && len(fields) >= 2 {
						d.checks = strings.Split(fields[0], ",")
						d.valid = true
					}
					m := out[pos.Filename]
					if m == nil {
						m = make(map[int][]*ignoreDirective)
						out[pos.Filename] = m
					}
					m[pos.Line] = append(m[pos.Line], d)
				}
			}
		}
	}
	return out
}

func (d *ignoreDirective) matches(check string) bool {
	if !d.valid {
		return false
	}
	for _, c := range d.checks {
		if c == check {
			return true
		}
	}
	return false
}

// runAnalyzers runs every analyzer over the loaded packages, applies
// suppression, and returns the surviving findings sorted by position. Type
// checking already happened in dependency order inside the loader; the
// analyzers run in registry order on the calling goroutine, sharing one call
// graph. Malformed //lint:ignore directives are themselves findings (check
// "lint"): a suppression without a stated reason suppresses nothing and
// documents nothing, and a suppression naming a check that is not registered
// guards nothing.
func runAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	ignores := collectIgnores(fset, pkgs)

	var raw []Finding
	pass := ModulePass{Fset: fset, Graph: buildCallGraph(pkgs), findings: &raw}
	for _, a := range analyzers {
		pass.check = a.Name
		a.Run(&pass)
	}

	known := map[string]bool{"lint": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var out []Finding
	for _, f := range raw {
		if !suppressed(ignores, f) {
			out = append(out, f)
		}
	}
	for _, byLine := range ignores {
		for _, ds := range byLine {
			for _, d := range ds {
				if !d.valid {
					out = append(out, Finding{
						Check: "lint",
						Pos:   d.pos,
						Msg:   "malformed //lint:ignore: want \"//lint:ignore <check>[,<check>] <reason>\" — a suppression must name its check and justify itself",
					})
					continue
				}
				for _, c := range d.checks {
					if !known[c] {
						out = append(out, Finding{
							Check: "lint",
							Pos:   d.pos,
							Msg:   fmt.Sprintf("//lint:ignore names unknown check %q — it suppresses nothing (reprolint -h lists the checks)", c),
						})
					}
				}
			}
		}
	}
	slices.SortStableFunc(out, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column))
	})
	return out
}

// suppressed reports whether a directive suppresses f. A directive applies to
// findings on its own line and on the line directly below it (the
// standalone-comment-above-the-statement form).
func suppressed(ignores map[string]map[int][]*ignoreDirective, f Finding) bool {
	byLine := ignores[f.Pos.Filename]
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.matches(f.Check) {
				return true
			}
		}
	}
	return false
}
