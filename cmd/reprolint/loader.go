package main

// The loader is reprolint's package front end: it discovers the module's
// packages, parses them with comments (the directives live there), and
// type-checks them in dependency order. It is built on go/parser and
// go/types alone — module-internal imports are served from the loader's own
// checked results, and only standard-library imports fall through to the
// go/importer source importer — so the tool matches the repository's
// zero-dependency go.mod.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/rtr").
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	imports []string // module-internal imports, for the topological sort
}

// Loader loads and type-checks module packages.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	checked    map[string]*types.Package // self-checked packages, by path
	stdImp     types.ImporterFrom
}

// NewLoader locates the enclosing module starting from dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		moduleRoot: root,
		modulePath: path,
		checked:    make(map[string]*types.Package),
		stdImp:     imp,
	}, nil
}

// findModule walks up from dir to the first go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}

// Load resolves patterns — "./..." for every package under the module root,
// or explicit directory paths — and returns the packages type-checked in
// dependency order.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			walked, err := l.walkModule()
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				addDir(d)
			}
			continue
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if st, err := os.Stat(abs); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a directory", pat)
		}
		addDir(abs)
	}

	var pkgs []*Package
	byPath := make(map[string]*Package)
	for _, dir := range dirs {
		p, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue // no buildable files
		}
		pkgs = append(pkgs, p)
		byPath[p.Path] = p
	}

	order, err := toposort(pkgs, byPath)
	if err != nil {
		return nil, err
	}
	for _, p := range order {
		if err := l.typecheck(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// walkModule returns every package directory under the module root, skipping
// testdata, vendor, hidden, and underscore-prefixed directories — the same
// pruning the go tool applies to "./..." patterns.
func (l *Loader) walkModule() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.moduleRoot &&
				(name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files of one directory contiguously, but be safe about
	// duplicates after sorting.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// parseDir parses one package directory. It returns nil when the directory
// holds no buildable non-test files.
func (l *Loader) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: outside module %s", dir, l.moduleRoot)
	}
	importPath := l.modulePath
	if rel != "." {
		importPath += "/" + filepath.ToSlash(rel)
	}

	p := &Package{Path: importPath}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			strings.HasSuffix(name, "_test.go") { // tests are out of scope
			continue
		}
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, file)
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
				p.imports = append(p.imports, path)
			}
		}
	}
	return p, nil
}

// toposort orders pkgs so every module-internal import either precedes its
// importer or is absent from the loaded set (and will be resolved by the
// source importer instead).
func toposort(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current path: a grey edge is an import cycle
		black = 2 // done
	)
	color := make(map[string]int, len(pkgs))
	order := make([]*Package, 0, len(pkgs))
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch color[p.Path] {
		case grey:
			return fmt.Errorf("import cycle through %s", p.Path)
		case black:
			return nil
		}
		color[p.Path] = grey
		for _, imp := range p.imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		color[p.Path] = black
		order = append(order, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Import serves module packages already checked in this run and defers
// everything else to the source importer. It makes the Loader usable as a
// types.Importer for its own type-checking passes.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.moduleRoot, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	// Resolve from the module root, not the importing file's directory: the
	// source importer needs a directory inside the module to pick up the
	// module context, and every loaded file satisfies that.
	return l.stdImp.ImportFrom(path, l.moduleRoot, 0)
}

// typecheck runs go/types over one parsed package.
func (l *Loader) typecheck(p *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var errs []error
	cfg := &types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := cfg.Check(p.Path, l.Fset, p.Files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return fmt.Errorf("type checking %s:\n\t%s", p.Path, strings.Join(msgs, "\n\t"))
	}
	p.Types = tpkg
	p.Info = info
	l.checked[p.Path] = tpkg
	return nil
}
