package lint

import (
	"go/ast"
	"go/types"
)

// dirOwner is the type whose replica maps genbump guards: the namenode,
// which holds Dir_block, Dir_rep and the block generations.
const dirOwner = "NameNode"

// replicaMapFields are the NameNode maps whose mutation changes which
// replica a reader would resolve — exactly the events the block
// generation counts and the qcache invalidates on. The file table and the
// dirty-save marks are deliberately excluded: neither affects replica
// routing.
var replicaMapFields = map[string]bool{"reps": true, "gens": true, "blocks": true}

// GenBump is the compile-time mirror of the namenode oracle harness's
// hook-fire accounting: every exported entry point that (transitively)
// mutates the NameNode's replica/generation maps must also (transitively)
// call notifyChanged, or the result cache serves stale bytes for every
// block the silent mutation touched. The check is reachability over the
// package call graph, so the registerReplica/RegisterReplica split —
// unexported locked writer, exported wrapper that fires the hook after
// releasing locks — passes, and deleting the notifyChanged call from the
// wrapper fails.
var GenBump = &Analyzer{
	Name: "genbump",
	Doc:  "exported mutators of NameNode replica/generation maps must fire notifyChanged",
	Run:  runGenBump,
	// Purely local: the maps and notifyChanged are package-private, so the
	// whole reachability question lives inside internal/hdfs.
	FactTypes: nil,
}

func runGenBump(pass *Pass) error {
	// Self-scoping: only packages declaring NameNode (internal/hdfs, or a
	// fixture modeling it) have the invariant.
	if pass.Pkg.Scope().Lookup(dirOwner) == nil {
		return nil
	}

	decls := funcDecls(pass)
	writes := make(map[*types.Func]bool)   // directly mutates a replica map
	notifies := make(map[*types.Func]bool) // directly calls notifyChanged
	callees := make(map[*types.Func][]*types.Func)
	declOf := make(map[*types.Func]*ast.FuncDecl)

	for _, fd := range decls {
		fn := declaredFunc(pass.Info, fd)
		if fn == nil {
			continue
		}
		declOf[fn] = fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if writesReplicaMap(pass, lhs) {
						writes[fn] = true
					}
				}
			case *ast.IncDecStmt:
				if writesReplicaMap(pass, st.X) {
					writes[fn] = true
				}
			case *ast.CallExpr:
				callee := calleeFunc(pass.Info, st)
				if callee == nil {
					// delete(s.reps, key) — a built-in, not a *types.Func.
					if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "delete" && len(st.Args) > 0 {
						if isReplicaMapExpr(pass, st.Args[0]) {
							writes[fn] = true
						}
					}
					return true
				}
				if callee.Name() == "notifyChanged" && callee.Pkg() == pass.Pkg {
					notifies[fn] = true
				}
				if callee.Pkg() == pass.Pkg {
					callees[fn] = append(callees[fn], callee)
				}
			}
			return true
		})
	}

	// closure lives in util.go now: sigflow and goleak propagate their own
	// direct-property sets over call graphs with the same helper.
	reachesWrite := closure(writes, callees)
	reachesNotify := closure(notifies, callees)

	for fn, fd := range declOf {
		if !fn.Exported() {
			continue
		}
		if reachesWrite[fn] && !reachesNotify[fn] {
			pass.Reportf(fd.Name.Pos(),
				"%s mutates NameNode replica/generation maps but never fires notifyChanged — cached results for the touched blocks go stale", fn.Name())
		}
	}
	return nil
}

// writesReplicaMap reports whether an assignment target is an entry of a
// NameNode replica map (nn.gens[b] = ..., nn.blocks[b] = append(...)).
func writesReplicaMap(pass *Pass, lhs ast.Expr) bool {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	return isReplicaMapExpr(pass, idx.X)
}

// isReplicaMapExpr reports whether an expression denotes one of a
// NameNode's replica maps.
func isReplicaMapExpr(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !replicaMapFields[sel.Sel.Name] {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	owner := namedOrNil(s.Recv())
	return owner != nil && owner.Obj().Name() == dirOwner
}
