package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardCheck enforces `// milret:guarded-by <mu>` field annotations: an
// annotated field may only be read with its mutex read- or
// write-locked on the same receiver expression, and only written with
// it write-locked.
//
// The tracker walks each function body sequentially, counting
// Lock/RLock and Unlock/RUnlock calls on sync.Mutex / sync.RWMutex
// expressions. The lock key is the printed receiver expression
// ("s.mu", "j.mu"), so a guarded access `s.items` checks the key
// "s.mu" — aliasing through a different variable is deliberately not
// tracked and reads as unguarded. Conservative rules that matter:
//
//   - `defer mu.Unlock()` does not release the lock (it runs at
//     function exit), so the canonical lock-defer-use pattern passes.
//   - Branch bodies (if/for/switch/select/range) run on a copy of the
//     lock state and their changes are discarded: an unlock-and-return
//     branch does not unlock the fallthrough path, and a lock acquired
//     only inside a branch is not held after it.
//   - Function literals start from an empty lock state, so a guarded
//     access inside `go func() { ... }()` is flagged unless the
//     literal locks for itself.
//
// Escape hatches, in decreasing order of preference: name the method
// with a "Locked" suffix (callee of code that already holds every
// receiver mutex), annotate `// milret:locked <mu>` (the named
// receiver mutex is held at entry), or `// milret:unguarded <reason>`
// (construction-time code where the value is not yet shared).
// Test files are skipped: tests drive single-goroutine white-box
// sequences where the discipline does not apply.
var GuardCheck = &Analyzer{
	Name: "guardcheck",
	Doc:  "checks that milret:guarded-by fields are only accessed with their mutex held",
	Run:  runGuardCheck,
}

// lockState tracks, per mutex key, how many write locks and read locks
// are held at the current program point of one function walk.
type lockState struct {
	write map[string]int
	read  map[string]int
	// allOf holds receiver names whose every mutex is considered held
	// (Locked-suffix methods).
	allOf map[string]bool
}

func newLockState() *lockState {
	return &lockState{
		write: make(map[string]int),
		read:  make(map[string]int),
		allOf: make(map[string]bool),
	}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.write {
		c.write[k] = v
	}
	for k, v := range s.read {
		c.read[k] = v
	}
	for k := range s.allOf {
		c.allOf[k] = true
	}
	return c
}

type guardChecker struct {
	pass    *Pass
	guarded map[*types.Var]string // field object -> mutex field name
}

func runGuardCheck(pass *Pass) error {
	gc := &guardChecker{pass: pass, guarded: collectGuardedFields(pass)}
	if len(gc.guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.InTestFile(fn.Pos()) {
				continue
			}
			if _, skip := funcDirective("unguarded", fn); skip {
				continue
			}
			st := newLockState()
			recv := receiverName(fn)
			if recv != "" && strings.HasSuffix(fn.Name.Name, "Locked") {
				st.allOf[recv] = true
			}
			if mu, ok := funcDirective("locked", fn); ok && recv != "" {
				for _, m := range strings.Fields(mu) {
					st.write[recv+"."+m]++
				}
			}
			gc.checkBlock(fn.Body.List, st)
		}
	}
	return nil
}

// collectGuardedFields resolves every `// milret:guarded-by <mu>`
// struct-field annotation in the package to its *types.Var.
func collectGuardedFields(pass *Pass) map[*types.Var]string {
	guarded := make(map[*types.Var]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := directive("guarded-by", field.Doc, field.Comment)
				if !ok {
					continue
				}
				if mu == "" {
					pass.Reportf(field.Pos(), "milret:guarded-by needs a mutex field name")
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	name := fn.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// checkBlock walks stmts sequentially, mutating st for Lock/Unlock
// calls at this nesting level and recursing into compound statements
// with copies of the state.
func (gc *guardChecker) checkBlock(stmts []ast.Stmt, st *lockState) {
	for _, s := range stmts {
		gc.checkStmt(s, st)
	}
}

func (gc *guardChecker) checkStmt(s ast.Stmt, st *lockState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := lockCall(gc.pass, s.X); ok {
			applyLockOp(st, key, op)
			return
		}
		gc.checkExpr(s.X, st, false)
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the lock stays held
		// for the rest of the walk. Any other deferred call is checked
		// like a normal call (a deferred closure runs after the locks
		// this function releases, so it gets a fresh state).
		if _, op, ok := lockCall(gc.pass, s.Call); ok && (op == opUnlock || op == opRUnlock) {
			return
		}
		gc.checkExpr(s.Call.Fun, st, false)
		for _, a := range s.Call.Args {
			gc.checkExpr(a, st, false)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			gc.checkExpr(e, st, false)
		}
		for _, e := range s.Lhs {
			gc.checkExpr(e, st, true)
		}
	case *ast.IncDecStmt:
		gc.checkExpr(s.X, st, true)
	case *ast.SendStmt:
		gc.checkExpr(s.Chan, st, false)
		gc.checkExpr(s.Value, st, false)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			gc.checkExpr(e, st, false)
		}
	case *ast.GoStmt:
		// Arguments are evaluated now, under the current locks; a
		// function-literal body runs concurrently and is checked from
		// an empty lock state inside checkExpr.
		gc.checkExpr(s.Call.Fun, st, false)
		for _, a := range s.Call.Args {
			gc.checkExpr(a, st, false)
		}
	case *ast.IfStmt:
		branch := st.clone()
		if s.Init != nil {
			gc.checkStmt(s.Init, branch)
		}
		gc.checkExpr(s.Cond, branch, false)
		gc.checkBlock(s.Body.List, branch.clone())
		if s.Else != nil {
			gc.checkStmt(s.Else, branch.clone())
		}
	case *ast.ForStmt:
		branch := st.clone()
		if s.Init != nil {
			gc.checkStmt(s.Init, branch)
		}
		if s.Cond != nil {
			gc.checkExpr(s.Cond, branch, false)
		}
		body := branch.clone()
		gc.checkBlock(s.Body.List, body)
		if s.Post != nil {
			gc.checkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		branch := st.clone()
		gc.checkExpr(s.X, branch, false)
		gc.checkBlock(s.Body.List, branch.clone())
	case *ast.SwitchStmt:
		branch := st.clone()
		if s.Init != nil {
			gc.checkStmt(s.Init, branch)
		}
		if s.Tag != nil {
			gc.checkExpr(s.Tag, branch, false)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseState := branch.clone()
			for _, e := range cc.List {
				gc.checkExpr(e, caseState, false)
			}
			gc.checkBlock(cc.Body, caseState)
		}
	case *ast.TypeSwitchStmt:
		branch := st.clone()
		if s.Init != nil {
			gc.checkStmt(s.Init, branch)
		}
		gc.checkStmt(s.Assign, branch)
		for _, c := range s.Body.List {
			gc.checkBlock(c.(*ast.CaseClause).Body, branch.clone())
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseState := st.clone()
			if cc.Comm != nil {
				gc.checkStmt(cc.Comm, caseState)
			}
			gc.checkBlock(cc.Body, caseState)
		}
	case *ast.BlockStmt:
		gc.checkBlock(s.List, st.clone())
	case *ast.LabeledStmt:
		gc.checkStmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						gc.checkExpr(v, st, false)
					}
				}
			}
		}
	}
}

// checkExpr recursively checks e for guarded-field accesses. write
// marks the access as a store (or address-taken), which requires the
// write lock rather than just a read lock.
func (gc *guardChecker) checkExpr(e ast.Expr, st *lockState, write bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if obj, ok := gc.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			if mu, guarded := gc.guarded[obj]; guarded {
				gc.checkAccess(e, obj, mu, st, write)
			}
		}
		gc.checkExpr(e.X, st, false)
	case *ast.FuncLit:
		// Concurrent or deferred execution: no caller lock carries in.
		gc.checkBlock(e.Body.List, newLockState())
	case *ast.CallExpr:
		gc.checkExpr(e.Fun, st, false)
		for _, a := range e.Args {
			gc.checkExpr(a, st, false)
		}
	case *ast.UnaryExpr:
		// Taking the address hands out a mutable alias: require the
		// write lock.
		gc.checkExpr(e.X, st, write || e.Op == token.AND)
	case *ast.StarExpr:
		gc.checkExpr(e.X, st, write)
	case *ast.ParenExpr:
		gc.checkExpr(e.X, st, write)
	case *ast.IndexExpr:
		gc.checkExpr(e.X, st, write)
		gc.checkExpr(e.Index, st, false)
	case *ast.IndexListExpr:
		gc.checkExpr(e.X, st, write)
		for _, i := range e.Indices {
			gc.checkExpr(i, st, false)
		}
	case *ast.SliceExpr:
		gc.checkExpr(e.X, st, write)
		for _, i := range []ast.Expr{e.Low, e.High, e.Max} {
			if i != nil {
				gc.checkExpr(i, st, false)
			}
		}
	case *ast.BinaryExpr:
		gc.checkExpr(e.X, st, false)
		gc.checkExpr(e.Y, st, false)
	case *ast.TypeAssertExpr:
		gc.checkExpr(e.X, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// Struct-literal keys name fields without accessing a
				// live value; only the value side is an access.
				gc.checkExpr(kv.Value, st, false)
				continue
			}
			gc.checkExpr(el, st, false)
		}
	}
}

func (gc *guardChecker) checkAccess(sel *ast.SelectorExpr, field *types.Var, mu string, st *lockState, write bool) {
	base := types.ExprString(sel.X)
	if st.allOf[base] {
		return
	}
	key := base + "." + mu
	if st.write[key] > 0 {
		return
	}
	if !write && st.read[key] > 0 {
		return
	}
	verb := "read of"
	if write {
		verb = "write to"
	}
	need := key
	if !write {
		need = key + " (or its read lock)"
	}
	gc.pass.Reportf(sel.Sel.Pos(), "%s %s.%s without %s held (field is milret:guarded-by %s)",
		verb, base, field.Name(), need, mu)
}

type lockOp int

const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

// lockCall reports whether e is a Lock/RLock/Unlock/RUnlock call on a
// sync.Mutex or sync.RWMutex expression, and returns the printed mutex
// expression as the lock key.
func lockCall(pass *Pass, e ast.Expr) (key string, op lockOp, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return "", 0, false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", 0, false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", 0, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", 0, false
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return "", 0, false
	}
	return types.ExprString(sel.X), op, true
}

func applyLockOp(st *lockState, key string, op lockOp) {
	switch op {
	case opLock:
		st.write[key]++
	case opRLock:
		st.read[key]++
	case opUnlock:
		if st.write[key] > 0 {
			st.write[key]--
		}
	case opRUnlock:
		if st.read[key] > 0 {
			st.read[key]--
		}
	}
}
