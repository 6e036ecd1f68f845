package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves a call expression to the declared function or method
// it invokes, or nil for calls through function values, built-ins and
// conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPathMatches reports whether a package path denotes the named package:
// either exactly (fixture packages have bare paths like "obs") or as the
// final path element ("repro/internal/obs").
func pkgPathMatches(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// namedOrNil unwraps pointers and aliases down to a named type.
func namedOrNil(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// recvNamed returns the named type of a method's receiver, nil for
// functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOrNil(sig.Recv().Type())
}

// funcDecls yields every function declaration with a body in the package.
func funcDecls(pass *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// declaredFunc returns the *types.Func a declaration defines.
func declaredFunc(info *types.Info, fd *ast.FuncDecl) *types.Func {
	f, _ := info.Defs[fd.Name].(*types.Func)
	return f
}

// closure propagates a direct-property set over the call graph: f has the
// property if it does directly or any callee (transitively) does. Shared
// by genbump (notifyChanged reachability), goleak (nontermination) and,
// in string-set form (closureSets), sigflow's field-read summaries.
func closure(direct map[*types.Func]bool, callees map[*types.Func][]*types.Func) map[*types.Func]bool {
	out := make(map[*types.Func]bool, len(direct))
	for f := range direct {
		out[f] = true
	}
	for changed := true; changed; {
		changed = false
		for f, cs := range callees {
			if out[f] {
				continue
			}
			for _, c := range cs {
				if out[c] {
					out[f] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// closureSets propagates per-function string sets over the call graph
// until fixpoint: each function's set absorbs its callees' sets.
func closureSets(direct map[*types.Func]map[string]bool, callees map[*types.Func][]*types.Func) map[*types.Func]map[string]bool {
	out := make(map[*types.Func]map[string]bool, len(direct))
	for f, s := range direct {
		cp := make(map[string]bool, len(s))
		for k := range s {
			cp[k] = true
		}
		out[f] = cp
	}
	get := func(f *types.Func) map[string]bool {
		s, ok := out[f]
		if !ok {
			s = make(map[string]bool)
			out[f] = s
		}
		return s
	}
	for changed := true; changed; {
		changed = false
		for f, cs := range callees {
			dst := get(f)
			for _, c := range cs {
				for k := range out[c] {
					if !dst[k] {
						dst[k] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

// pkgTail returns the last element of a package path — the stable,
// prefix-independent name used in fact keys so that fixture packages
// ("query") and real ones ("repro/internal/query") produce identical
// keys.
func pkgTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// hasMethodNamed reports whether the named type (value or pointer
// receiver) declares a method with the given name.
func hasMethodNamed(n *types.Named, name string) bool {
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == name {
			return true
		}
	}
	return false
}
