package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc machine-checks the zero-allocation hot path. Functions whose
// doc comment carries a //swift:hotpath directive are roots; everything
// module-reachable from a root through static calls inherits the
// obligation. Within the hot set the analyzer flags every construct that
// heap-allocates (or is overwhelmingly likely to under escape analysis):
//
//   - make / new and slice, map, and &T{} composite literals
//   - append whose destination is not rooted at a parameter or the
//     receiver (the caller-provided `dst = append(dst, ...)` codec idiom
//     and struct-owned scratch buffers are the approved shapes: they
//     amortize to zero)
//   - string <-> []byte / []rune conversions and string concatenation
//   - interface boxing at call arguments and conversions
//   - closures that capture enclosing variables, and go statements
//   - any fmt.* call
//
// Calls through interfaces and into foreign (stdlib) code are not
// traversed — the type system's layer boundaries bound the hot set —
// and justified exceptions (init-time setup, cold error branches) take
// //lint:allow hotalloc <reason>. This turns the benchmark ladder's
// zero allocations per packet from a bench observation into a build gate.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//swift:hotpath functions and everything they reach must not heap-allocate",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	if pass.Mod == nil {
		pass.Mod = BuildModule([]*Package{pass.Pkg})
	}
	checkDirectives(pass)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			root := pass.Mod.HotRoot(fn)
			if root == nil {
				continue
			}
			checkHotFunc(pass, fd, fn, root)
		}
	}
}

// checkDirectives validates the //swift: machine-directive namespace,
// which hotalloc owns: unknown directives, malformed arguments, and
// directives floating outside a function's doc comment (where they
// silently bind nothing) are all findings.
func checkDirectives(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		docs := make(map[*ast.CommentGroup]bool)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				docs[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				switch name {
				case DirHotpath:
					if args != "" {
						pass.Reportf(c.Pos(), "hotalloc: //swift:hotpath takes no argument (got %q)", args)
					} else if !docs[cg] {
						pass.Reportf(c.Pos(), "hotalloc: misplaced //swift:hotpath: the directive binds only on a function's doc comment")
					}
				case DirPool:
					// Argument validation belongs to bufsafe; placement is
					// shared grammar.
					if !docs[cg] {
						pass.Reportf(c.Pos(), "hotalloc: misplaced //swift:pool: the directive binds only on a function's doc comment")
					}
				default:
					pass.Reportf(c.Pos(), "hotalloc: unknown directive //swift:%s (known: hotpath, pool)", name)
				}
			}
		}
	}
}

// checkHotFunc flags every allocation site in one hot function.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, fn *types.Func, root *types.Func) {
	owned := ownedObjects(pass, fd)
	via := ""
	if root != fn {
		via = fmt.Sprintf(" (reached from //swift:hotpath root %s)", funcLabel(root))
	}
	flag := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, "hotalloc: "+fmt.Sprintf(format, args...)+" in hot-path function %s%s; hoist it or //lint:allow hotalloc <reason>", funcLabel(fn), via)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, x, owned, flag)
		case *ast.CompositeLit:
			t := pass.TypeOf(x)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				flag(x.Pos(), "slice literal allocates")
			case *types.Map:
				flag(x.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					flag(x.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(pass.TypeOf(x)) {
				flag(x.Pos(), "string concatenation allocates")
			}
		case *ast.GoStmt:
			flag(x.Pos(), "go statement allocates a goroutine")
		case *ast.FuncLit:
			if capturesOuter(pass, x, fd) {
				flag(x.Pos(), "closure captures enclosing variables and escapes")
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped allocation sites: builtins,
// conversions, fmt, append destinations, and interface boxing at the
// arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr, owned map[types.Object]bool, flag func(token.Pos, string, ...any)) {
	// Builtins and append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				flag(call.Pos(), "make allocates")
			case "new":
				flag(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !rootedAt(pass, call.Args[0], owned) {
					flag(call.Pos(), "append to a function-local slice may grow and allocate")
				}
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune allocate; conversions to an
	// interface type box.
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypeOf(call.Args[0])
		switch {
		case isString(to) && isByteOrRuneSlice(from):
			flag(call.Pos(), "string(bytes) conversion copies and allocates")
		case isByteOrRuneSlice(to) && isString(from):
			flag(call.Pos(), "[]byte(string) conversion copies and allocates")
		case types.IsInterface(to) && from != nil && !types.IsInterface(from) && basicOrComposite(from):
			flag(call.Pos(), "conversion to interface boxes the value")
		}
		return
	}
	if fn := pass.Callee(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		flag(call.Pos(), "fmt.%s allocates", fn.Name())
		return
	}
	// Interface boxing at arguments: a concrete value passed where the
	// callee takes an interface is wrapped in a fresh heap cell.
	sig, _ := pass.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		at := pass.TypeOf(arg)
		if pt == nil || at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if isUntypedNil(pass, arg) || !basicOrComposite(at) {
			continue
		}
		flag(arg.Pos(), "argument boxes %s into %s", at, pt)
	}
}

// ownedObjects collects the objects an append destination may be rooted
// at without flagging: the function's parameters (including named
// results) and its receiver. Appending into caller-provided or
// struct-owned storage amortizes to zero allocations.
func ownedObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Pkg.Info.Defs[name]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	add(fd.Type.Results)
	return owned
}

// rootedAt reports whether the expression's base identifier resolves to
// one of the owned objects (unwrapping slicing, indexing, selectors and
// parens: s.sendBuf[:0] is rooted at s).
func rootedAt(pass *Pass, e ast.Expr, owned map[types.Object]bool) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return owned[pass.Pkg.Info.Uses[x]] || owned[pass.Pkg.Info.Defs[x]]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// capturesOuter reports whether lit references a variable declared in
// the enclosing function outside the literal itself — the case where
// materializing the closure allocates.
func capturesOuter(pass *Pass, lit *ast.FuncLit, fd *ast.FuncDecl) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			captures = true
		}
		return true
	})
	return captures
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// basicOrComposite reports whether boxing t requires a heap cell: basic
// values, structs, and arrays do; pointers, slices, maps, channels and
// functions fit the interface word (pointer-shaped) or are themselves
// already references.
func basicOrComposite(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return true
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// funcLabel renders a function compactly for diagnostics:
// wire.AppendPacket, agent.(*session).serveRead.
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return pkgBase(fn.Pkg().Path()) + "." + name
	}
	return name
}
