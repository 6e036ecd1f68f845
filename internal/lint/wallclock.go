package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallClock enforces the clock-injection discipline: bare
// time.Now()/time.Since() reads ambient wall-clock state, which makes
// decisions such as cache or replica eviction untestable and
// irreproducible. Library code that decides by time takes its clock as a
// parameter (or counts logical ticks, as the adaptive indexer's heat
// does); code that only measures feeds an Observe timing.
//
// Allowed without comment:
//   - cmd/ and internal/experiments — harness code, where wall time IS the
//     measurement;
//   - internal/obs — the observability layer owns process timing;
//   - _test.go files;
//   - time.Since whose result feeds directly into a histogram's
//     .Observe(...) call, and time.Now assigned to a variable used only in
//     such time.Since calls — duration metrics, not decision clocks.
//
// Anything else needs //lint:allow wallclock <reason>.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "bare time.Now/time.Since outside harness, obs, tests, and Observe-fed timing",
	Run:  runWallClock,
	// Purely local: the clock discipline is judged at each call site.
	FactTypes: nil,
}

func wallclockExemptPath(rel string) bool {
	return strings.HasPrefix(rel, "cmd/") || rel == "cmd" ||
		pkgPathMatches(rel, "internal/obs") ||
		pkgPathMatches(rel, "internal/experiments") || rel == "experiments"
}

func runWallClock(pass *Pass) error {
	if wallclockExemptPath(pass.RelPath) {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		exemptSince := sinceCallsFeedingObserve(pass, file)
		exemptNow := nowVarsOnlyTiming(pass, file, exemptSince)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			switch fn.Name() {
			case "Now":
				if !exemptNow[call] {
					pass.Reportf(call.Pos(), "bare time.Now(): take a clock as a parameter or feed an Observe timing")
				}
			case "Since":
				if !exemptSince[call] {
					pass.Reportf(call.Pos(), "bare time.Since(): take a clock as a parameter or feed the duration straight into a histogram Observe")
				}
			}
			return true
		})
	}
	return nil
}

// sinceCallsFeedingObserve collects time.Since calls appearing directly as
// an argument of a call to a method named Observe — latency-histogram
// timing, which is the one sanctioned use of ambient wall-clock deltas in
// library code.
func sinceCallsFeedingObserve(pass *Pass, file *ast.File) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Observe" {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			if fn := calleeFunc(pass.Info, inner); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && fn.Name() == "Since" {
				out[inner] = true
			}
		}
		return true
	})
	return out
}

// nowVarsOnlyTiming exempts time.Now() calls whose result lands in a
// variable used exclusively as the argument of exempt time.Since calls —
// the "start := time.Now(); defer h.Observe(time.Since(start))" shape.
func nowVarsOnlyTiming(pass *Pass, file *ast.File, exemptSince map[*ast.CallExpr]bool) map[*ast.CallExpr]bool {
	// Map from variable object to its time.Now() creation call(s).
	created := make(map[types.Object][]*ast.CallExpr)
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Name() != "Now" {
			return true
		}
		var obj types.Object
		if o, ok := pass.Info.Defs[id]; ok && o != nil {
			obj = o
		} else if o, ok := pass.Info.Uses[id]; ok {
			obj = o
		}
		if obj != nil {
			created[obj] = append(created[obj], call)
		}
		return true
	})
	if len(created) == 0 {
		return nil
	}

	// A use disqualifies unless it is (a) the LHS of one of the creation
	// assignments, or (b) the sole argument of an exempt time.Since call.
	disqualified := make(map[types.Object]bool)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := created[obj]; !tracked {
			return true
		}
		if useIsBenignTiming(pass, stack, exemptSince) {
			return true
		}
		disqualified[obj] = true
		return true
	})

	out := make(map[*ast.CallExpr]bool)
	for obj, calls := range created {
		if !disqualified[obj] {
			for _, c := range calls {
				out[c] = true
			}
		}
	}
	return out
}

// useIsBenignTiming classifies the identifier at the top of the stack: LHS
// of an assignment (the creation write) or argument of an exempt
// time.Since call.
func useIsBenignTiming(pass *Pass, stack []ast.Node, exemptSince map[*ast.CallExpr]bool) bool {
	id := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if lhs == id {
					return true
				}
			}
			return false
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, parent); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && fn.Name() == "Since" {
				return exemptSince[parent]
			}
			return false
		case *ast.ParenExpr:
			continue
		default:
			return false
		}
	}
	return false
}
