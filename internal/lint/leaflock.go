package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// LeafLock keeps the storage layer's leaf locks leaves, as the paper's
// separate namenode and datanode processes are (§3.2). A leaf section runs
// from x.mu.Lock() or RLock() on a NameNode or DataNode to the matching
// Unlock in the same statement list, or to the list's end when the unlock
// is deferred. Inside one, a call may go to the standard library, or to a
// function of the same package that takes no lock, itself or through the
// package's functions it calls; any other call to module code, and any
// second lock, is reported. No facts and no module pass: a goroutine's or
// closure's body runs on its own stack. Lock-order cycles among the other
// mutexes are left to tests (TestSaveConcurrentWithUploads catches the one
// the tree could close).
var LeafLock = &Analyzer{
	Name: "leaflock",
	Doc:  "NameNode.mu and DataNode.mu sections take no second lock and call no module code that may take one",
	Run:  runLeafLock,
}

func runLeafLock(pass *Pass) error {
	declared := make(map[*types.Func]bool) // this package's functions
	direct := make(map[*types.Func]bool)   // ... whose own body locks
	callees := make(map[*types.Func][]*types.Func)
	for _, fd := range funcDecls(pass) {
		fn := declaredFunc(pass.Info, fd)
		if fn == nil {
			continue
		}
		declared[fn] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if isLockCall(pass.Info, call) {
					direct[fn] = true
				}
				if c := calleeFunc(pass.Info, call); c != nil && c.Pkg() == pass.Pkg {
					callees[fn] = append(callees[fn], c.Origin())
				}
			}
			return true
		})
	}
	locks := closure(direct, callees) // ... or calls one of this package's that does
	for _, fd := range funcDecls(pass) {
		checkLeaf(pass, declared, locks, fd.Body.List, nil)
	}
	return nil
}

// checkLeaf checks a statement list given the leaf mutexes held where it
// starts. A nested list (a branch, a loop body, a case) starts from what
// is held where it begins, and what it locks or unlocks stays inside it.
func checkLeaf(pass *Pass, declared, locks map[*types.Func]bool, list []ast.Stmt, held []string) {
	visit := func(n ast.Node) bool {
		var inner []ast.Stmt
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLeaf(pass, declared, locks, n.Body.List, nil)
			return false
		case *ast.BlockStmt:
			inner = n.List
		case *ast.CaseClause:
			for _, e := range n.List {
				inner = append(inner, &ast.ExprStmt{X: e})
			}
			inner = append(inner, n.Body...)
		case *ast.CommClause:
			inner = append([]ast.Stmt{n.Comm}, n.Body...)
		case *ast.CallExpr:
			// No second lock, and of module code only this package's
			// lock-free functions.
			fn := calleeFunc(pass.Info, n)
			if len(held) == 0 || fn == nil || fn.Pkg() == nil {
				break
			}
			if isLockCall(pass.Info, n) {
				pass.Reportf(n.Pos(), "%s taken while leaf lock %s is held — a leaf lock is the last lock its goroutine takes", types.ExprString(ast.Unparen(n.Fun).(*ast.SelectorExpr).X), held[len(held)-1])
			} else if (fn.Pkg() == pass.Pkg || pass.IsLocalPkg(fn.Pkg().Path())) && (!declared[fn.Origin()] || locks[fn.Origin()]) {
				pass.Reportf(n.Pos(), "%s called while leaf lock %s is held — namenode/datanode critical sections call only the standard library and lock-free functions of their package", fn.Name(), held[len(held)-1])
			}
		}
		if inner == nil {
			return true
		}
		checkLeaf(pass, declared, locks, inner, held)
		return false
	}
	for _, s := range list {
		var mu, op string
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
				mu, op = leafMutex(pass.Info, call)
			}
		}
		switch {
		case op == "Lock" || op == "RLock":
			ast.Inspect(s, visit) // a leaf lock under another is reported too
			held = append(slices.Clip(held), mu)
		case op == "Unlock" || op == "RUnlock":
			held = slices.DeleteFunc(slices.Clone(held), func(h string) bool { return h == mu })
		case s != nil: // a select's default clause has no Comm
			ast.Inspect(s, visit)
		}
	}
}

// isLockCall reports whether a call locks a sync mutex.
func isLockCall(info *types.Info, call *ast.CallExpr) bool {
	return slices.Contains([]string{"Lock", "RLock", "TryLock", "TryRLock"}, syncMethod(info, call))
}

// syncMethod returns the name of the sync method a call invokes, or "".
func syncMethod(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && recvNamed(fn) != nil {
		return fn.Name()
	}
	return ""
}

// leafMutex returns the rendered mutex ("nn.mu") and the sync method of a
// call on a NameNode's or DataNode's mu field, or two empty strings.
func leafMutex(info *types.Info, call *ast.CallExpr) (mu, op string) {
	if op = syncMethod(info, call); op == "" {
		return "", ""
	}
	field, _ := ast.Unparen(ast.Unparen(call.Fun).(*ast.SelectorExpr).X).(*ast.SelectorExpr)
	if s := info.Selections[field]; s != nil && s.Kind() == types.FieldVal && field.Sel.Name == "mu" {
		if owner := namedOrNil(s.Recv()); owner != nil && (owner.Obj().Name() == "NameNode" || owner.Obj().Name() == "DataNode") {
			return types.ExprString(field), op
		}
	}
	return "", ""
}
