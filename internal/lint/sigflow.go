package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// sigReadsFact summarizes, for one function, the transitive set of
// tracked knob fields it reads — query.Query/query.Predicate fields and
// fields of any type carrying a QuerySignature method. Exported on the
// function object so a dependent package's pass can fold the summary into
// its own call-graph closure without re-analyzing the dependency.
type sigReadsFact struct {
	Reads []string
}

func (*sigReadsFact) AFact() {}

// SigFlow is the cache-signature completeness proof: the block-level
// result cache (internal/qcache) keys entries by (file, block,
// generation, QuerySignature, MapSig, replica), so any knob that changes
// a block scan's output and is NOT folded into QuerySignature makes the
// cache serve stale bytes the moment the knob flips. SigFlow computes,
// via per-function field-read summaries propagated across packages as
// facts, (a) the set of tracked fields the signature canonicalization
// transitively reads (the keyed set, rooted at each QuerySignature
// method) and (b) the set read on the block-scan path (rooted at the same
// receiver's Open, expanded through the reader types it builds), and
// reports every scan-path read outside the keyed set.
//
// Tracked fields are those of query-package types and of the
// QuerySignature receiver itself. Three classes are exempt by
// construction: fields whose type lives in the hdfs package (the storage
// handle — block bytes are keyed by generation, so topology changes
// already miss), address-taken fields (atomic accumulators are outputs,
// not knobs; atomicfield polices them), and split-phase-only fields
// (split shape is keyed separately: the split cache key carries the
// sorted (block, generation) set and the pinned replica). MapSig's side
// of the key is enforced at runtime — mapred.Engine refuses to cache when
// Job.MapSig is empty.
var SigFlow = &Analyzer{
	Name:      "sigflow",
	Doc:       "every knob read on the block-scan path must flow into QuerySignature",
	Run:       runSigFlow,
	FactTypes: []Fact{(*sigReadsFact)(nil)},
}

func runSigFlow(pass *Pass) error {
	decls := funcDecls(pass)
	declOf := make(map[*types.Func]*ast.FuncDecl)
	callees := make(map[*types.Func][]*types.Func)
	direct := make(map[*types.Func]map[string]bool)
	constructed := make(map[*types.Func]map[string]bool)
	methodsOf := make(map[string][]*types.Func) // local type name → methods
	site := make(map[string]token.Pos)          // first in-package read site per key
	exempt := make(map[string]bool)             // hdfs-typed fields

	for _, fd := range decls {
		fn := declaredFunc(pass.Info, fd)
		if fn == nil {
			continue
		}
		declOf[fn] = fd
		if recv := recvNamed(fn); recv != nil && recv.Obj().Pkg() == pass.Pkg {
			methodsOf[recv.Obj().Name()] = append(methodsOf[recv.Obj().Name()], fn)
		}
		dr := make(map[string]bool)
		ct := make(map[string]bool)
		skip := writeTargets(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if skip[x] {
					return true
				}
				key, fieldType := trackedRead(pass, x)
				if key == "" {
					return true
				}
				dr[key] = true
				if _, ok := site[key]; !ok {
					site[key] = x.Sel.Pos()
				}
				if isHdfsTyped(fieldType) {
					exempt[key] = true
				}
			case *ast.CompositeLit:
				if tv, ok := pass.Info.Types[x]; ok {
					if n := namedOrNil(tv.Type); n != nil && n.Obj().Pkg() == pass.Pkg {
						if _, isStruct := n.Underlying().(*types.Struct); isStruct {
							ct[n.Obj().Name()] = true
						}
					}
				}
			case *ast.CallExpr:
				callee := calleeFunc(pass.Info, x)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				if callee.Pkg() == pass.Pkg {
					callees[fn] = append(callees[fn], callee)
				} else if pass.IsLocalPkg != nil && pass.IsLocalPkg(callee.Pkg().Path()) {
					// Cross-package local callee: its summary is a fact the
					// dependency's pass already exported; fold it in as if
					// the reads were direct.
					var f sigReadsFact
					if pass.ImportObjectFact(callee, &f) {
						for _, r := range f.Reads {
							dr[r] = true
						}
					}
				}
			}
			return true
		})
		direct[fn] = dr
		constructed[fn] = ct
	}

	reads := closureSets(direct, callees)
	builds := closureSets(constructed, callees)

	// Export summaries for dependent packages.
	for fn, rs := range reads {
		if len(rs) == 0 {
			continue
		}
		out := make([]string, 0, len(rs))
		for k := range rs {
			out = append(out, k)
		}
		sort.Strings(out)
		pass.ExportObjectFact(fn, &sigReadsFact{Reads: out})
	}

	// For each QuerySignature receiver declared here, compare the keyed
	// closure against the scan-path closure.
	for fn, fd := range declOf {
		if fn.Name() != "QuerySignature" {
			continue
		}
		recv := recvNamed(fn)
		if recv == nil || recv.Obj().Pkg() != pass.Pkg {
			continue
		}
		keyed := reads[fn]

		// Scan root: the receiver's Open, expanded through every local type
		// it (transitively) constructs — the reader object Open returns is
		// driven by the engine, so its whole method set is on the scan path.
		scanFns := make(map[*types.Func]bool)
		for _, m := range methodsOf[recv.Obj().Name()] {
			if m.Name() == "Open" {
				scanFns[m] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for f := range scanFns {
				for tn := range builds[f] {
					for _, m := range methodsOf[tn] {
						if !scanFns[m] {
							scanFns[m] = true
							changed = true
						}
					}
				}
			}
		}

		scanReads := make(map[string]bool)
		for f := range scanFns {
			for k := range reads[f] {
				scanReads[k] = true
			}
		}
		var missing []string
		for k := range scanReads {
			if !keyed[k] && !exempt[k] {
				missing = append(missing, k)
			}
		}
		sort.Strings(missing)
		for _, k := range missing {
			pos, ok := site[k]
			if !ok {
				pos = fd.Name.Pos()
			}
			pass.Reportf(pos,
				"%s is read on the block-scan path but never flows into %s.QuerySignature — an unkeyed knob serves stale cache entries when it changes",
				k, recv.Obj().Name())
		}
	}
	return nil
}

// trackedRead classifies a selector as a read of a tracked knob field,
// returning its fact key ("query.Query.Filter") and the field's type, or
// "" for untracked selections.
func trackedRead(pass *Pass, sel *ast.SelectorExpr) (string, types.Type) {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", nil
	}
	recv := namedOrNil(s.Recv())
	if recv == nil || recv.Obj().Pkg() == nil {
		return "", nil
	}
	pkgPath := recv.Obj().Pkg().Path()
	if !pkgPathMatches(pkgPath, "query") && !hasMethodNamed(recv, "QuerySignature") {
		return "", nil
	}
	return pkgTail(pkgPath) + "." + recv.Obj().Name() + "." + s.Obj().Name(), s.Obj().Type()
}

// isHdfsTyped reports whether a field's type (behind pointers) is
// declared in the hdfs package — the storage-handle exemption.
func isHdfsTyped(t types.Type) bool {
	n := namedOrNil(t)
	return n != nil && n.Obj().Pkg() != nil && pkgPathMatches(n.Obj().Pkg().Path(), "hdfs")
}

// writeTargets collects selectors that are assignment/IncDec targets or
// address-taken operands: writes and accumulator access, not knob reads.
func writeTargets(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	skip := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			skip[sel] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		}
		return true
	})
	return skip
}
