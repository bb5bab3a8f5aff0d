package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufSafe machine-checks pooled-buffer lifecycles. Functions whose doc
// comment carries //swift:pool acquire hand out a pooled buffer the
// caller must give back; functions marked //swift:pool release take one
// back. Within each function the analyzer tracks every variable bound to
// an acquire call (and its aliases, including subslices) through a
// linear walk of the control flow and reports:
//
//   - a path that returns while the buffer is still held (leak)
//   - a second release of the same buffer (double release)
//   - any use of the buffer or an alias after its release (use after
//     release — this is also the retention check: a subslice kept past
//     the release is a use of freed memory once the pool rewrites it)
//   - release on only some branches of an if/else (unpaired paths)
//
// Ownership transfers are recognized and end tracking: returning the
// buffer, storing it into a field, or deferring its release. Branching
// constructs the walker cannot pair precisely (loops, switches) degrade
// to not-tracked rather than to false positives.
//
// The contract is specified against the fixture pool in
// internal/lint/testdata; the real pools (DESIGN.md "Frame ownership in
// the transports" and "bufsafe") carry the same directives.
var BufSafe = &Analyzer{
	Name: "bufsafe",
	Doc:  "pooled buffers must be released exactly once on every path and never used after release",
	Run:  runBufSafe,
}

// Pool roles a //swift:pool directive can assign.
const (
	poolAcquire = "acquire"
	poolRelease = "release"
)

// PoolRole returns the //swift:pool role of fn ("acquire", "release")
// or "" when fn is unmarked or foreign.
func (m *Module) PoolRole(fn *types.Func) string {
	fd := m.Decls[fn]
	if fd == nil {
		return ""
	}
	if name, args, ok := directiveOf(fd.Doc); ok && name == DirPool {
		if args == poolAcquire || args == poolRelease {
			return args
		}
	}
	return ""
}

func runBufSafe(pass *Pass) {
	if pass.Mod == nil {
		pass.Mod = BuildModule([]*Package{pass.Pkg})
	}
	// Validate the pool directives declared in this package.
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if name, args, ok := ParseDirective(c.Text); ok && name == DirPool {
					if args != poolAcquire && args != poolRelease {
						pass.Reportf(c.Pos(), "bufsafe: //swift:pool wants %q or %q (got %q)", poolAcquire, poolRelease, args)
					}
				}
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bw := &bufWalker{pass: pass}
					sc := &bufScope{vars: make(map[types.Object]*bufGroup)}
					bw.stmts(fn.Body.List, sc)
					bw.finish(sc, fn.Body.End())
				}
			case *ast.FuncLit:
				// Analyzed as its own scope, like lockio: a buffer
				// acquired inside a literal must be balanced inside it.
				bw := &bufWalker{pass: pass}
				sc := &bufScope{vars: make(map[types.Object]*bufGroup)}
				bw.stmts(fn.Body.List, sc)
				bw.finish(sc, fn.Body.End())
			}
			return true
		})
	}
}

// Buffer lifecycle states.
const (
	bufAcquired = iota
	bufReleased
	bufEscaped // ownership transferred (returned, stored, deferred): stop judging
)

// bufGroup is one pooled buffer and all its aliases.
type bufGroup struct {
	state    int
	acquired token.Position // where the buffer came from the pool
	released token.Position // where it went back (valid when state == bufReleased)
	deferred bool           // a defer will release it at function exit
	name     string         // the variable first bound to it, for messages
}

// bufScope maps variables to the buffer group they alias on the current
// control-flow path.
type bufScope struct {
	vars map[types.Object]*bufGroup
}

func (s *bufScope) clone() *bufScope {
	c := &bufScope{vars: make(map[types.Object]*bufGroup, len(s.vars))}
	groups := make(map[*bufGroup]*bufGroup)
	for obj, g := range s.vars {
		ng, ok := groups[g]
		if !ok {
			copied := *g
			ng = &copied
			groups[g] = ng
		}
		c.vars[obj] = ng
	}
	return c
}

type bufWalker struct {
	pass *Pass
}

// finish reports buffers still held when the function falls off its end.
func (w *bufWalker) finish(s *bufScope, end token.Pos) {
	reported := make(map[*bufGroup]bool)
	for _, g := range s.vars {
		if g.state == bufAcquired && !g.deferred && !reported[g] {
			reported[g] = true
			w.pass.Reportf(end, "bufsafe: pooled buffer %s (acquired at %s) is never released", g.name, g.acquired)
		}
	}
}

// stmts walks a statement list, threading buffer state. It reports
// whether the flow terminated (an unconditional return).
func (w *bufWalker) stmts(list []ast.Stmt, s *bufScope) bool {
	for _, st := range list {
		if w.stmt(st, s) {
			return true
		}
	}
	return false
}

func (w *bufWalker) stmt(st ast.Stmt, s *bufScope) bool {
	switch x := st.(type) {
	case *ast.ExprStmt:
		if w.releaseCall(x.X, s, false) {
			return false
		}
		w.checkUses(x.X, s)
	case *ast.DeferStmt:
		w.releaseCall(x.Call, s, true)
	case *ast.AssignStmt:
		w.assign(x, s)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.bindValues(vs.Names, vs.Values, s)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.checkUses(r, s)
			w.markEscaped(r, s)
		}
		w.leaksAt(x.Pos(), s)
		return true
	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init, s)
		}
		w.checkUses(x.Cond, s)
		then := s.clone()
		thenTerm := w.stmts(x.Body.List, then)
		els := s.clone()
		elsTerm := false
		if x.Else != nil {
			elsTerm = w.stmt(x.Else, els)
		}
		w.merge(s, then, thenTerm, els, elsTerm, x.End())
		return thenTerm && elsTerm && x.Else != nil
	case *ast.BlockStmt:
		return w.stmts(x.List, s)
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.opaque(st, s)
	case *ast.GoStmt:
		w.checkUses(x.Call, s)
		for _, a := range x.Call.Args {
			w.markEscaped(a, s) // the goroutine owns it now
		}
	case *ast.SendStmt:
		w.checkUses(x.Chan, s)
		w.checkUses(x.Value, s)
		w.markEscaped(x.Value, s)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, s)
	default:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.checkUses(e, s)
				return false
			}
			return true
		})
	}
	return false
}

// opaque handles constructs the walker does not model path-precisely:
// uses are still checked, releases inside still count, but a group
// touched inside degrades to escaped (not-tracked) rather than risking
// a false leak or false pairing report.
func (w *bufWalker) opaque(st ast.Stmt, s *bufScope) {
	inner := s.clone()
	ast.Inspect(st, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if w.releaseCall(x, inner, false) {
				return false
			}
		case ast.Expr:
			w.checkUses(x, inner)
			return false
		}
		return true
	})
	// Groups released (or newly bound) inside: stop judging them.
	for obj, g := range inner.vars {
		og, ok := s.vars[obj]
		if !ok || og.state != g.state {
			if ok {
				og.state = bufEscaped
			}
		}
	}
}

// merge reconciles the two arms of an if. A group released on one
// surviving arm but still held on the other is an unpaired path and is
// reported once, at the end of the if.
func (w *bufWalker) merge(s, then *bufScope, thenTerm bool, els *bufScope, elsTerm bool, pos token.Pos) {
	for obj, g := range s.vars {
		tg, eg := then.vars[obj], els.vars[obj]
		var states []int
		if !thenTerm && tg != nil {
			states = append(states, tg.state)
		}
		if !elsTerm && eg != nil {
			states = append(states, eg.state)
		}
		switch len(states) {
		case 0:
			// Both arms returned; anything after is dead code.
		case 1:
			g.state = states[0]
			if g.state == bufReleased {
				if tg != nil && tg.state == bufReleased {
					g.released = tg.released
				} else if eg != nil {
					g.released = eg.released
				}
			}
		default:
			if states[0] != states[1] {
				if (states[0] == bufReleased) != (states[1] == bufReleased) {
					w.pass.Reportf(pos, "bufsafe: pooled buffer %s (acquired at %s) is released on only some paths through this if", g.name, g.acquired)
				}
				g.state = bufEscaped
			} else {
				g.state = states[0]
				if g.state == bufReleased && tg != nil {
					g.released = tg.released
				}
			}
		}
	}
}

// assign handles acquires (x := pool.Get()), aliasing (y := x, y :=
// x[i:j]), stores (s.f = x transfers ownership), and plain uses.
func (w *bufWalker) assign(x *ast.AssignStmt, s *bufScope) {
	w.bindValues(identsOf(x.Lhs), x.Rhs, s)
}

// bindValues is the shared binding logic for := / = / var declarations.
func (w *bufWalker) bindValues(names []*ast.Ident, values []ast.Expr, s *bufScope) {
	// One call, possibly multi-valued: an acquire binds the first name.
	if len(values) == 1 {
		if call, ok := ast.Unparen(values[0]).(*ast.CallExpr); ok {
			w.checkUses(call, s)
			if fn := w.pass.Callee(call); fn != nil && w.pass.Mod.PoolRole(fn) == poolAcquire {
				for _, name := range names {
					if name == nil || name.Name == "_" {
						continue
					}
					obj := w.pass.Pkg.Info.Defs[name]
					if obj == nil {
						obj = w.pass.Pkg.Info.Uses[name]
					}
					if obj != nil {
						pos := w.pass.Pkg.Fset.Position(call.Pos())
						s.vars[obj] = &bufGroup{state: bufAcquired, acquired: pos, name: name.Name}
					}
					break // the buffer is the first result
				}
				return
			}
		}
	}
	for i, v := range values {
		w.checkUses(v, s)
		var name *ast.Ident
		if i < len(names) {
			name = names[i]
		}
		if name == nil {
			// Field or index store: ownership transfers to the container.
			w.markEscaped(v, s)
			continue
		}
		// Aliasing: y := x or y := x[a:b] joins y to x's group.
		if name.Name != "_" {
			if g := w.groupOf(v, s); g != nil {
				obj := w.pass.Pkg.Info.Defs[name]
				if obj == nil {
					obj = w.pass.Pkg.Info.Uses[name]
				}
				if obj != nil {
					s.vars[obj] = g
				}
			}
		}
	}
}

// identsOf maps assignment LHS expressions to their identifiers; a
// non-identifier LHS (field store, index store) comes back nil and the
// RHS value, if tracked, escapes.
func identsOf(lhs []ast.Expr) []*ast.Ident {
	out := make([]*ast.Ident, len(lhs))
	for i, e := range lhs {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			out[i] = id
		}
	}
	return out
}

// groupOf resolves the buffer group an expression aliases: the variable
// itself, a field of it, or a subslice of either.
func (w *bufWalker) groupOf(e ast.Expr, s *bufScope) *bufGroup {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.pass.Pkg.Info.Uses[x]; obj != nil {
			return s.vars[obj]
		}
	case *ast.SelectorExpr:
		return w.groupOf(x.X, s)
	case *ast.SliceExpr:
		return w.groupOf(x.X, s)
	}
	return nil
}

// releaseCall recognizes pool.Put(x) / x.Release() shapes. deferred
// marks defer sites, which satisfy the pairing obligation without
// transitioning the state (the release happens at exit, so later uses
// are fine).
func (w *bufWalker) releaseCall(e ast.Expr, s *bufScope, deferred bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := w.pass.Callee(call)
	if fn == nil || w.pass.Mod.PoolRole(fn) != poolRelease {
		return false
	}
	// The released buffer: the first tracked argument, or the method
	// receiver for buf.Release() shapes.
	var g *bufGroup
	var at ast.Expr
	for _, a := range call.Args {
		if cg := w.groupOf(a, s); cg != nil {
			g, at = cg, a
			break
		}
	}
	if g == nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if cg := w.groupOf(sel.X, s); cg != nil {
				g, at = cg, sel.X
			}
		}
	}
	if g == nil {
		return true // releasing something we don't track (a parameter, a field)
	}
	pos := at.Pos()
	switch {
	case deferred:
		if g.state == bufReleased {
			w.pass.Reportf(pos, "bufsafe: deferred release of %s which was already released at %s", g.name, g.released)
		}
		g.deferred = true
	case g.deferred:
		w.pass.Reportf(pos, "bufsafe: double release of %s: a deferred release already pairs its acquire at %s", g.name, g.acquired)
	case g.state == bufReleased:
		w.pass.Reportf(pos, "bufsafe: double release of %s (already released at %s)", g.name, g.released)
	case g.state == bufAcquired:
		g.state = bufReleased
		g.released = w.pass.Pkg.Fset.Position(pos)
	}
	return true
}

// checkUses reports uses of released buffers (or their aliases) inside
// an expression, and treats stores into fields as ownership transfer.
func (w *bufWalker) checkUses(e ast.Expr, s *bufScope) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if g := s.vars[obj]; g != nil && g.state == bufReleased {
			w.pass.Reportf(id.Pos(), "bufsafe: use of %s after release (released at %s)", id.Name, g.released)
			g.state = bufEscaped // one report per release, not one per use
		}
		return true
	})
}

// markEscaped transfers ownership of a tracked buffer named by e.
func (w *bufWalker) markEscaped(e ast.Expr, s *bufScope) {
	if g := w.groupOf(e, s); g != nil && g.state == bufAcquired {
		g.state = bufEscaped
	}
}

// leaksAt reports buffers still held at an early return.
func (w *bufWalker) leaksAt(pos token.Pos, s *bufScope) {
	reported := make(map[*bufGroup]bool)
	for _, g := range s.vars {
		if g.state == bufAcquired && !g.deferred && !reported[g] {
			reported[g] = true
			w.pass.Reportf(pos, "bufsafe: pooled buffer %s (acquired at %s) is not released on this return path", g.name, g.acquired)
		}
	}
}
