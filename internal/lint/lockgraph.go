package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// A lockEdge records "while holding From, To was acquired" at one site.
// Positions are resolved token.Positions so the module phase can report
// without a package context.
type lockEdge struct {
	From, To string
	// Upgrade marks a read-to-write reacquisition of the same instance —
	// a genuine RWMutex upgrade, distinct from ordering between two
	// instances of one class.
	Upgrade bool
	Pos     token.Position
}

// lockGraphFact is lockgraph's package fact: every acquisition edge
// observed in the package, one per (site, class pair), sorted.
type lockGraphFact struct {
	Edges []lockEdge
}

func (*lockGraphFact) AFact() {}

// lockAcquiresFact is lockgraph's object fact on functions: the set of
// lock classes the function transitively acquires ("W:qcache.shard.mu"),
// so a dependent package calling it under a held lock yields an edge
// without re-analyzing the dependency.
type lockAcquiresFact struct {
	Acquires []string
}

func (*lockAcquiresFact) AFact() {}

// LockGraph proves the module's lock discipline: every sync.Mutex/RWMutex
// acquisition is classified into a lock class — (package, owner type,
// field) for `x.mu.Lock()`, (package, var) for package-level mutexes — and
// a held-set interpretation of each function records which classes are
// acquired while which are held. Cross-package nesting flows through
// facts: a call made under a held lock contributes edges to everything the
// callee transitively acquires. The module phase then reports (a)
// read-to-write upgrades of one RWMutex instance, (b) nested acquisition
// within one class (intra-class order is undefined: shard A→B here and B→A
// elsewhere deadlocks), (c) any edge out of a leaf class — NameNode.mu and
// DataNode.mu, whose critical sections do their own map work and take no
// other lock, directly or through any callee — and (d) every strongly
// connected component of the class graph: the deadlock cycles no single
// package can see.
//
// An in-package function that returns holding a lock it acquired (net of
// its deferred releases) — a lock()/rlock() helper — is an acquisition at
// its call site; the held instance takes the name the result is assigned
// to, so `s := nn.lock()` is released by `s.mu.Unlock()`. Goroutine and closure bodies are interpreted on their
// own empty stacks: their internal nesting is policed, but their
// acquisitions are not attributed to the spawning function.
var LockGraph = &Analyzer{
	Name:      "lockgraph",
	Doc:       "the module-wide lock-acquisition graph must stay acyclic, with leaf namenode/datanode locks and no RWMutex upgrades",
	Run:       runLockGraph,
	Finish:    finishLockGraph,
	FactTypes: []Fact{(*lockGraphFact)(nil), (*lockAcquiresFact)(nil)},
}

// leafClass reports whether a lock class is one of the storage layer's
// leaf locks: the namenode directory and the datanodes.
func leafClass(class string) bool {
	return strings.HasSuffix(class, ".NameNode.mu") || strings.HasSuffix(class, ".DataNode.mu")
}

// lgHeld is one held lock: class, mode ("R"/"W"), and the rendered
// receiver expression distinguishing instances of one class.
type lgHeld struct {
	class, mode, inst string
}

// lgCall is a non-mutex call made while locks were held.
type lgCall struct {
	callee *types.Func
	held   []lgHeld
	pos    token.Pos
}

// lgState accumulates one package's graph as functions are walked.
type lgState struct {
	pass    *Pass
	edges   []lockEdge
	edgeAt  map[lgEdgeKey]int               // index into edges
	direct  map[*types.Func]map[string]bool // fn → "mode:class" acquired directly
	callees map[*types.Func][]*types.Func
	calls   []lgCall
	cur     *types.Func // function being walked (nil inside closures/goroutines)

	// helpers are the lock-returning functions known when the walk began,
	// with the locks each leaves held (instances in its own terms);
	// returnsHeld is what this walk found.
	helpers, returnsHeld map[*types.Func][]lgHeld
	// exits and deferred belong to the function being walked: the held
	// set at each return (and at a fall-through end), and its deferred
	// releases.
	exits    [][]lgHeld
	deferred []lgHeld
}

type lgEdgeKey struct {
	from, to string
	pos      token.Pos
}

func runLockGraph(pass *Pass) error {
	// A helper built on another helper is found only once the inner one is
	// known, so walk until the set of lock-returning helpers is stable. It
	// only grows, and a package without helpers is walked once.
	helpers := map[*types.Func][]lgHeld{}
	st := walkLockGraph(pass, helpers)
	for !maps.EqualFunc(st.returnsHeld, helpers, slices.Equal[[]lgHeld]) {
		helpers = st.returnsHeld
		st = walkLockGraph(pass, helpers)
	}

	// Transitive acquires: seed with direct acquisitions plus imported
	// summaries of cross-package callees, then close over the in-package
	// call graph.
	for fn := range st.direct {
		for _, c := range st.calleesOf(fn) {
			if c.Pkg() == pass.Pkg {
				continue
			}
			var f lockAcquiresFact
			if pass.ImportObjectFact(c, &f) {
				for _, a := range f.Acquires {
					st.direct[fn][a] = true
				}
			}
		}
	}
	sameCallees := make(map[*types.Func][]*types.Func)
	for fn, cs := range st.callees {
		for _, c := range cs {
			if c.Pkg() == pass.Pkg {
				sameCallees[fn] = append(sameCallees[fn], c)
			}
		}
	}
	trans := closureSets(st.direct, sameCallees)

	// Edges from calls under held locks.
	for _, c := range st.calls {
		var acq map[string]bool
		if c.callee.Pkg() == pass.Pkg {
			acq = trans[c.callee]
		} else {
			var f lockAcquiresFact
			if pass.ImportObjectFact(c.callee, &f) {
				acq = make(map[string]bool, len(f.Acquires))
				for _, a := range f.Acquires {
					acq[a] = true
				}
			}
		}
		for a := range acq {
			class := a[2:] // "mode:class"
			for _, h := range c.held {
				st.addEdge(h, class, false, c.pos)
			}
		}
	}

	// Export facts.
	for fn, acq := range trans {
		if len(acq) == 0 {
			continue
		}
		out := make([]string, 0, len(acq))
		for a := range acq {
			out = append(out, a)
		}
		sort.Strings(out)
		pass.ExportObjectFact(fn, &lockAcquiresFact{Acquires: out})
	}
	if len(st.edges) > 0 {
		sort.SliceStable(st.edges, func(i, j int) bool { return posLess(st.edges[i].Pos, st.edges[j].Pos) })
		pass.ExportPackageFact(&lockGraphFact{Edges: st.edges})
	}
	return nil
}

// walkLockGraph interprets every function of the package, given the
// lock-returning helpers known so far.
func walkLockGraph(pass *Pass, helpers map[*types.Func][]lgHeld) *lgState {
	st := &lgState{
		pass:        pass,
		edgeAt:      make(map[lgEdgeKey]int),
		direct:      make(map[*types.Func]map[string]bool),
		callees:     make(map[*types.Func][]*types.Func),
		helpers:     helpers,
		returnsHeld: make(map[*types.Func][]lgHeld),
	}
	for _, fd := range funcDecls(pass) {
		fn := declaredFunc(pass.Info, fd)
		if fn == nil {
			continue
		}
		st.direct[fn] = make(map[string]bool)
		st.cur, st.exits, st.deferred = fn, nil, nil
		var held []lgHeld
		st.walk(fd.Body.List, &held)
		if n := len(fd.Body.List); n == 0 || !isReturn(fd.Body.List[n-1]) {
			st.exits = append(st.exits, held)
		}
		if h := st.heldAtExit(); len(h) > 0 {
			st.returnsHeld[fn] = h
		}
	}
	st.cur = nil
	return st
}

func isReturn(s ast.Stmt) bool {
	_, ok := s.(*ast.ReturnStmt)
	return ok
}

// heldAtExit returns the locks the walked function holds at every exit,
// net of its deferred releases: what its caller holds after the call.
func (st *lgState) heldAtExit() []lgHeld {
	if len(st.exits) == 0 {
		return nil
	}
	var out []lgHeld
next:
	for _, h := range st.exits[0] {
		if slices.Contains(st.deferred, h) {
			continue
		}
		for _, exit := range st.exits[1:] {
			if !slices.Contains(exit, h) {
				continue next
			}
		}
		out = append(out, h)
	}
	return out
}

func (st *lgState) calleesOf(fn *types.Func) []*types.Func {
	return st.callees[fn]
}

// addEdge records one edge per (site, class pair). A call to a
// lock-returning helper reaches the same site twice — as an acquisition,
// which knows about upgrades, and as a call — so the flag is merged.
func (st *lgState) addEdge(from lgHeld, toClass string, upgrade bool, pos token.Pos) {
	key := lgEdgeKey{from.class, toClass, pos}
	if i, ok := st.edgeAt[key]; ok {
		st.edges[i].Upgrade = st.edges[i].Upgrade || upgrade
		return
	}
	st.edgeAt[key] = len(st.edges)
	st.edges = append(st.edges, lockEdge{
		From: from.class, To: toClass,
		Upgrade: upgrade,
		Pos:     st.pass.Fset.Position(pos),
	})
}

// walk interprets a statement list, tracking held locks. Compound
// statements recurse on copies: a branch's acquisitions are policed
// inside the branch but not assumed held after it.
func (st *lgState) walk(stmts []ast.Stmt, held *[]lgHeld) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *ast.BlockStmt:
			st.walk(x.List, held)
		case *ast.IfStmt:
			if x.Init != nil {
				st.walk([]ast.Stmt{x.Init}, held)
			}
			st.scanExpr(x.Cond, *held)
			st.walkBranch(x.Body.List, *held)
			if x.Else != nil {
				st.walkBranch([]ast.Stmt{x.Else}, *held)
			}
		case *ast.ForStmt:
			if x.Init != nil {
				st.walk([]ast.Stmt{x.Init}, held)
			}
			st.scanExpr(x.Cond, *held)
			st.walkBranch(x.Body.List, *held)
		case *ast.RangeStmt:
			st.scanExpr(x.X, *held)
			st.walkBranch(x.Body.List, *held)
		case *ast.SwitchStmt:
			if x.Init != nil {
				st.walk([]ast.Stmt{x.Init}, held)
			}
			st.scanExpr(x.Tag, *held)
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					st.walkBranch(cc.Body, *held)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					st.walkBranch(cc.Body, *held)
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					st.walkBranch(cc.Body, *held)
				}
			}
		case *ast.LabeledStmt:
			st.walk([]ast.Stmt{x.Stmt}, held)
		case *ast.DeferStmt:
			if class, mode, op, ok := st.mutexOp(x.Call); ok {
				// defer mu.Unlock() keeps the section open to the end — no
				// state change, but the function does not return holding
				// it; a deferred acquire (pathological) still pushes so
				// later acquisitions see it.
				switch {
				case op == "release" && st.cur != nil:
					st.deferred = append(st.deferred, lgHeld{class: class.name, mode: mode, inst: class.inst})
				case op != "release":
					st.acquire(held, class, mode, x.Call, op == "acquire")
				}
				continue
			}
			st.scanStmt(s, held)
		case *ast.ReturnStmt:
			st.scanStmt(s, held)
			if st.cur != nil {
				st.exits = append(st.exits, slices.Clone(*held))
			}
		case *ast.GoStmt:
			// Fresh stack: interpret a literal body with nothing held.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				st.walkDetached(lit.Body.List)
			}
		default:
			st.scanStmt(s, held)
		}
	}
}

// walkDetached interprets a closure or goroutine body on its own empty
// stack, with st.cur cleared so its acquisitions and calls are not
// attributed to the enclosing function's summary — a literal that runs
// concurrently (or conditionally, via a stored func value) must not make
// its spawner look like it acquires under the caller's locks.
func (st *lgState) walkDetached(stmts []ast.Stmt) {
	saved := st.cur
	st.cur = nil
	var fresh []lgHeld
	st.walk(stmts, &fresh)
	st.cur = saved
}

func (st *lgState) walkBranch(stmts []ast.Stmt, held []lgHeld) {
	cp := make([]lgHeld, len(held))
	copy(cp, held)
	st.walk(stmts, &cp)
}

// scanStmt applies every call in a simple statement, in traversal order:
// mutex operations mutate the held set, a lock-returning helper acquires,
// anything else is recorded as a call site with the current held snapshot.
// Closure bodies are walked on their own empty stacks.
func (st *lgState) scanStmt(s ast.Stmt, held *[]lgHeld) {
	ast.Inspect(s, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			st.walkDetached(lit.Body.List)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			st.applyCall(s, call, held)
		}
		return true
	})
}

func (st *lgState) applyCall(s ast.Stmt, call *ast.CallExpr, held *[]lgHeld) {
	if class, mode, op, ok := st.mutexOp(call); ok {
		switch op {
		case "acquire", "try":
			st.acquire(held, class, mode, call, op == "acquire")
		case "release":
			st.release(held, class, mode)
		}
		return
	}
	st.recordCall(call, *held)
	fn := calleeFunc(st.pass.Info, call)
	for _, h := range st.helpers[fn] {
		class := lgClass{name: h.class, inst: helperInst(s, call, fn, h.inst)}
		st.acquire(held, class, h.mode, call, true)
	}
}

// helperInst names, in the caller's terms, the instance a lock-returning
// helper leaves held: the identifier its result is assigned to, else the
// call's receiver when the helper locked its own receiver, else the call
// itself — an instance the caller can never release.
func helperInst(s ast.Stmt, call *ast.CallExpr, fn *types.Func, inst string) string {
	if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call {
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			return id.Name
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && recv.Name() == inst {
			return types.ExprString(sel.X)
		}
	}
	return types.ExprString(call)
}

// scanExpr records calls (and polices mutex ops) inside a condition or
// range operand without mutating the surrounding held set.
func (st *lgState) scanExpr(e ast.Expr, held []lgHeld) {
	if e == nil {
		return
	}
	cp := make([]lgHeld, len(held))
	copy(cp, held)
	st.scanStmt(&ast.ExprStmt{X: e}, &cp)
}

func (st *lgState) recordCall(call *ast.CallExpr, held []lgHeld) {
	fn := calleeFunc(st.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	local := fn.Pkg() == st.pass.Pkg ||
		(st.pass.IsLocalPkg != nil && st.pass.IsLocalPkg(fn.Pkg().Path()))
	if !local {
		return
	}
	if st.cur != nil {
		st.callees[st.cur] = append(st.callees[st.cur], fn)
	}
	if len(held) > 0 {
		cp := make([]lgHeld, len(held))
		copy(cp, held)
		st.calls = append(st.calls, lgCall{callee: fn, held: cp, pos: call.Pos()})
	}
}

// acquire records edges from everything held to the new lock and pushes
// it. blocking=false (TryLock) pushes without incoming edges: a
// nonblocking acquisition cannot complete a deadlock cycle.
func (st *lgState) acquire(held *[]lgHeld, class lgClass, mode string, call *ast.CallExpr, blocking bool) {
	if blocking {
		for _, h := range *held {
			upgrade := h.class == class.name && h.inst == class.inst && h.mode == "R" && mode == "W"
			st.addEdge(h, class.name, upgrade, call.Pos())
		}
	}
	*held = append(*held, lgHeld{class: class.name, mode: mode, inst: class.inst})
	if st.cur != nil {
		st.direct[st.cur][mode+":"+class.name] = true
	}
}

func (st *lgState) release(held *[]lgHeld, class lgClass, mode string) {
	for i := len(*held) - 1; i >= 0; i-- {
		h := (*held)[i]
		if h.class == class.name && h.inst == class.inst && h.mode == mode {
			*held = append((*held)[:i], (*held)[i+1:]...)
			return
		}
	}
}

type lgClass struct {
	name string // "qcache.shard.mu" or "hdfs.saveMu"
	inst string // rendered receiver expression, distinguishing instances
}

// mutexOp classifies a call as a sync.Mutex/RWMutex operation on a
// classifiable lock: a mutex-typed field of a named type, or a
// package-level mutex variable. Locals and unclassifiable receivers are
// ignored (a mutex that never escapes a function cannot participate in a
// cross-function cycle).
func (st *lgState) mutexOp(call *ast.CallExpr) (lgClass, string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lgClass{}, "", "", false
	}
	var mode, op string
	switch sel.Sel.Name {
	case "Lock":
		mode, op = "W", "acquire"
	case "RLock":
		mode, op = "R", "acquire"
	case "Unlock":
		mode, op = "W", "release"
	case "RUnlock":
		mode, op = "R", "release"
	case "TryLock":
		mode, op = "W", "try"
	case "TryRLock":
		mode, op = "R", "try"
	default:
		return lgClass{}, "", "", false
	}
	fn := calleeFunc(st.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lgClass{}, "", "", false
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// x.mu.Lock(): class by (owner type, field).
		s, ok := st.pass.Info.Selections[recv]
		if !ok || s.Kind() != types.FieldVal {
			return lgClass{}, "", "", false
		}
		owner := namedOrNil(s.Recv())
		if owner == nil || owner.Obj().Pkg() == nil {
			return lgClass{}, "", "", false
		}
		name := pkgTail(owner.Obj().Pkg().Path()) + "." + owner.Obj().Name() + "." + recv.Sel.Name
		return lgClass{name: name, inst: types.ExprString(recv.X)}, mode, op, true
	case *ast.Ident:
		// mu.Lock() on a package-level mutex.
		obj := st.pass.Info.Uses[recv]
		if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return lgClass{}, "", "", false
		}
		name := pkgTail(obj.Pkg().Path()) + "." + obj.Name()
		return lgClass{name: name, inst: obj.Name()}, mode, op, true
	}
	return lgClass{}, "", "", false
}

// finishLockGraph assembles every package's edges and reports upgrades,
// intra-class nesting and leaf violations at each site, and cross-class
// cycles (as strongly connected components, one report per component).
func finishLockGraph(mp *ModulePass) error {
	var edges []lockEdge
	for _, pf := range mp.AllPackageFacts() {
		edges = append(edges, pf.Fact.(*lockGraphFact).Edges...)
	}
	sort.SliceStable(edges, func(i, j int) bool { return posLess(edges[i].Pos, edges[j].Pos) })

	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for _, e := range edges {
		switch {
		case e.Upgrade:
			mp.ReportfAt(e.Pos,
				"read-to-write upgrade of %s while its read lock is held — deadlocks against any concurrent writer", e.From)
		case e.From == e.To:
			mp.ReportfAt(e.Pos,
				"nested acquisition within lock class %s — intra-class ordering is undefined (A→B here, B→A elsewhere deadlocks)", e.From)
		case leafClass(e.From):
			mp.ReportfAt(e.Pos,
				"acquiring %s while leaf lock %s is held — namenode/datanode critical sections take no other lock", e.To, e.From)
		default:
			adj[e.From] = append(adj[e.From], e.To)
			nodes[e.From], nodes[e.To] = true, true
		}
	}

	for _, scc := range tarjanSCC(nodes, adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		// Report at the lexically first edge inside the component.
		var at token.Position
		for _, e := range edges {
			if !e.Upgrade && e.From != e.To && inSCC[e.From] && inSCC[e.To] {
				at = e.Pos
				break
			}
		}
		mp.ReportfAt(at, "lock-acquisition cycle across %s — acquisition order is not global, deadlock is reachable",
			joinArrow(scc))
	}
	return nil
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func joinArrow(nodes []string) string {
	out := ""
	for i, n := range nodes {
		if i > 0 {
			out += " ⇄ "
		}
		out += n
	}
	return out
}

// tarjanSCC returns the strongly connected components of the class graph,
// deterministically (nodes visited in sorted order).
func tarjanSCC(nodes map[string]bool, adj map[string][]string) [][]string {
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, ns := range adj {
		sort.Strings(ns)
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
