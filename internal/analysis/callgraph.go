package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural substrate the module-wide
// analyzers (dettaint, atomiclint, hotpathlint) share: a call graph
// over every function declared in the loaded packages plus a
// per-function info record carrying the declaration, its annotation
// markers and its static call sites. Analyzer-specific summaries
// (taint facts, atomic access sets, hot-path operation lists) are
// computed lazily on top and cached on the Module, so running three
// interprocedural analyzers over N packages builds the graph once.

// Call is one static call site: a direct call to a package-level
// function or a method call whose receiver type is concrete, so the
// callee is known at analysis time.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
}

// DynamicCall is a call whose callee cannot be resolved statically: a
// call through a function-typed variable, field or parameter, or an
// interface method call.
type DynamicCall struct {
	Pos token.Pos
	// Desc names what was called, e.g. "function value d.exec" or
	// "interface method io.Writer.Write".
	Desc string
}

// FuncInfo is the per-function record of the module view.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Hotpath marks a //mtexc:hotpath function: a root whose entire
	// static call tree hotpathlint requires to be free of allocation,
	// locking and I/O.
	Hotpath bool
	// Coldpath marks a //mtexc:coldpath function: an abort/error/
	// debug-only path that hot code may call but whose body is exempt
	// from (and stops) hot-path traversal.
	Coldpath bool
	// TaintSink marks a //mtexc:dettaint-sink function: every
	// argument flowing into it must be deterministic.
	TaintSink bool

	// Calls lists statically resolved call sites in source order;
	// Dynamic lists the unresolvable ones.
	Calls   []Call
	Dynamic []DynamicCall
}

// Module is the whole-program view: every loaded package, the
// function records, and lazily computed analyzer fact caches.
type Module struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncInfo

	// byPkg indexes the functions declared in each package, in
	// deterministic (position) order.
	byPkg map[*Package][]*FuncInfo

	// Lazily built analyzer caches; nil until first use. The runner
	// is single-goroutine, so no locking.
	atomicFacts *atomicFacts
	hotDiags    []Diagnostic
	hotBuilt    bool
	taintFacts  *taintFacts
}

// NewModule builds the call graph over pkgs. Packages should come
// from one Loader (object identity across packages relies on the
// shared type-checker cache); pass Loader.Loaded() for the full
// transitive view.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Funcs: map[*types.Func]*FuncInfo{},
		byPkg: map[*Package][]*FuncInfo{},
	}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	m.Pkgs = append(m.Pkgs, pkgs...)
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &FuncInfo{
					Fn:       fn,
					Decl:     fd,
					Pkg:      pkg,
					Hotpath:  docHasMarker(fd.Doc, "mtexc:hotpath"),
					Coldpath: docHasMarker(fd.Doc, "mtexc:coldpath"),
					TaintSink: docHasMarker(fd.Doc, "mtexc:dettaint-sink") ||
						hardcodedSinks[fn.FullName()],
				}
				if fd.Body != nil {
					collectCalls(pkg, fd.Body, info)
				}
				m.Funcs[fn] = info
				m.byPkg[pkg] = append(m.byPkg[pkg], info)
			}
		}
	}
	return m
}

// hardcodedSinks names the functions dettaint treats as sinks even if
// their annotation comment is deleted — the journal fingerprint, the
// journal append, and the table cell write are what the reproduction's
// byte-identity claims hang off, so the check on them must not be
// disableable by editing a comment (same reasoning as fingerprintlint
// hard-coding cpu.Config).
var hardcodedSinks = map[string]bool{
	"mtexc/internal/harness.runKey":            true,
	"(*mtexc/internal/harness.Journal).record": true,
	"(*mtexc/internal/harness.Table).Set":      true,
}

// FuncsOf returns the functions declared in pkg, in source order.
func (m *Module) FuncsOf(pkg *Package) []*FuncInfo {
	return m.byPkg[pkg]
}

// collectCalls records every call site inside body — including in
// nested function literals, whose operations are attributed to the
// enclosing declaration (an over-approximation that errs toward
// reporting: a closure built on a hot path usually runs on it too).
//
// Calls through a local variable that is only ever assigned function
// literals within this body are not recorded as dynamic: the literals'
// operations and calls are already attributed to this function by the
// nested-literal rule above, so the indirect call adds nothing
// unverifiable. (If such a variable is ever also assigned a non-literal
// it stays dynamic.)
func collectCalls(pkg *Package, body *ast.BlockStmt, info *FuncInfo) {
	localLits := localFuncLitVars(pkg, body)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && localLits[pkg.Info.Uses[id]] {
			return true
		}
		if callee, dyn, ok := resolveCallee(pkg, call); ok {
			if callee != nil {
				info.Calls = append(info.Calls, Call{Callee: callee, Pos: call.Pos()})
			} else {
				info.Dynamic = append(info.Dynamic, DynamicCall{Pos: call.Pos(), Desc: dyn})
			}
		}
		return true
	})
}

// localFuncLitVars finds the local variables of body whose every
// assignment is a function literal defined in body.
func localFuncLitVars(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	litOnly := map[types.Object]bool{}
	tainted := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, isLit := ast.Unparen(rhs).(*ast.FuncLit); isLit {
			litOnly[obj] = true
		} else {
			tainted[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		case *ast.UnaryExpr:
			// &f: the variable may be written through the pointer.
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})
	for obj := range tainted {
		delete(litOnly, obj)
	}
	// Only variables declared inside body qualify: a package-level or
	// field func value assigned a literal here can be reassigned
	// elsewhere.
	for obj := range litOnly {
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			delete(litOnly, obj)
		}
	}
	return litOnly
}

// resolveCallee classifies one call expression. ok is false for
// conversions and builtins; otherwise callee is the statically known
// target, or nil with dyn describing the dynamic call.
func resolveCallee(pkg *Package, call *ast.CallExpr) (callee *types.Func, dyn string, ok bool) {
	// Type conversions are not calls.
	if tv, found := pkg.Info.Types[call.Fun]; found && tv.IsType() {
		return nil, "", false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			return obj, "", true
		case *types.Builtin:
			return nil, "", false
		case *types.Var:
			return nil, "function value " + fun.Name, true
		}
	case *ast.SelectorExpr:
		if sel, found := pkg.Info.Selections[fun]; found {
			// Method (or func-field) call through a value.
			switch obj := sel.Obj().(type) {
			case *types.Func:
				if types.IsInterface(recvType(sel)) {
					return nil, "interface method " + obj.FullName(), true
				}
				return canonicalMethod(obj), "", true
			case *types.Var:
				return nil, "function value " + exprString(fun), true
			}
		} else if obj, found := pkg.Info.Uses[fun.Sel].(*types.Func); found {
			// Qualified call pkg.F(...).
			return obj, "", true
		}
	}
	return nil, "unresolvable call", true
}

// recvType unwraps the receiver type of a method selection to its
// core (pointer-free) form.
func recvType(sel *types.Selection) types.Type {
	t := sel.Recv()
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// canonicalMethod maps a method object to the declaration object the
// module indexes. For methods promoted through embedding or selected
// through instantiated forms, Func.Origin returns the declared one.
func canonicalMethod(fn *types.Func) *types.Func {
	return fn.Origin()
}

// FuncDisplayName renders a function for diagnostics: package-
// qualified but module-prefix-free, e.g. "cpu.(*Machine).step".
func FuncDisplayName(fn *types.Func) string {
	name := fn.FullName()
	if pkg := fn.Pkg(); pkg != nil {
		short := pkg.Path()
		if i := strings.LastIndex(short, "/"); i >= 0 {
			short = short[i+1:]
		}
		name = strings.ReplaceAll(name, pkg.Path(), short)
	}
	return name
}

// chainString renders a call chain root → … → leaf for diagnostics.
func chainString(chain []*types.Func) string {
	parts := make([]string, len(chain))
	for i, fn := range chain {
		parts[i] = FuncDisplayName(fn)
	}
	return strings.Join(parts, " → ")
}
