package analysis

import (
	"go/ast"
	"go/types"
	"sync"
)

// Engine is the cross-package fact layer shared by every analyzer in one
// Run: a declaration index that resolves a types.Func to its syntax
// anywhere in the loaded package set, named-type and
// interface-implementer lookup, and a memo space where analyzers cache
// whole-program results so per-package passes stay cheap and
// deterministic. It is built once per Run (single-package fixture
// loads included) and is read-only afterwards, so parallel per-package
// passes may share it freely; Memo serialises the one mutable surface.
type Engine struct {
	pkgs []*Package

	decl map[*types.Func]*ast.FuncDecl

	// dirs holds each package's waiver-directive index, shared with the
	// per-package passes so directives are scanned once per load.
	dirs map[string]directiveIndex

	mu   sync.Mutex
	memo map[string]any
}

// NewEngine builds the fact layer over the given packages. Packages are
// indexed in slice order (the loader sorts by import path), files and
// declarations in source order, so every derived list is deterministic.
func NewEngine(pkgs []*Package) *Engine {
	e := &Engine{
		pkgs: pkgs,
		decl: map[*types.Func]*ast.FuncDecl{},
		dirs: map[string]directiveIndex{},
		memo: map[string]any{},
	}
	for _, pkg := range pkgs {
		e.dirs[pkg.Path] = indexDirectives(pkg.Fset, pkg.Files)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				e.decl[fn] = fd
			}
		}
	}
	return e
}

// Decl resolves a function or method to its declaration anywhere in the
// loaded set; nil for functions outside it (standard library, interface
// methods).
func (e *Engine) Decl(fn *types.Func) *ast.FuncDecl { return e.decl[fn] }

// NamedTypes returns every named type declared in the package set,
// sorted by package path then type name.
func (e *Engine) NamedTypes() []*types.Named {
	return e.Memo("engine.named", func() any {
		var out []*types.Named
		for _, pkg := range e.pkgs {
			scope := pkg.Types.Scope()
			names := scope.Names() // already sorted
			for _, name := range names {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						out = append(out, named)
					}
				}
			}
		}
		return out
	}).([]*types.Named)
}

// Interfaces returns the named interface types with the given name, in
// package order — the lookup fabriccontract uses to find the Link
// contract wherever it is declared (the fabric package on the real
// tree, the fixture package under test).
func (e *Engine) Interfaces(name string) []*types.Named {
	var out []*types.Named
	for _, named := range e.NamedTypes() {
		if named.Obj().Name() != name {
			continue
		}
		if _, ok := named.Underlying().(*types.Interface); ok {
			out = append(out, named)
		}
	}
	return out
}

// Implementers returns every named type in the package set whose
// pointer method set satisfies iface, in NamedTypes order.
func (e *Engine) Implementers(iface *types.Interface) []*types.Named {
	var out []*types.Named
	for _, named := range e.NamedTypes() {
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue
		}
		if types.Implements(types.NewPointer(named), iface) || types.Implements(named, iface) {
			out = append(out, named)
		}
	}
	return out
}

// MethodDecl resolves a named type's method by name to its declaration,
// or nil when the method is promoted, synthetic, or declared outside
// the loaded set.
func (e *Engine) MethodDecl(named *types.Named, name string) *ast.FuncDecl {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return e.Decl(m)
		}
	}
	return nil
}

// Memo returns the cached value under key, building it under the
// engine lock on first demand. Analyzers use it to compute
// whole-program facts exactly once regardless of package count or
// worker interleaving; build must therefore be deterministic.
func (e *Engine) Memo(key string, build func() any) any {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.memo[key]; ok {
		return v
	}
	v := build()
	e.memo[key] = v
	return v
}

// directivesFor returns the package's directive index (empty index for
// packages outside the engine's set).
func (e *Engine) directivesFor(path string) directiveIndex {
	if d, ok := e.dirs[path]; ok {
		return d
	}
	return directiveIndex{}
}
