package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Fact is one bit of cross-package knowledge about a function, computed
// bottom-up in dependency order so that by the time a package is analyzed,
// the facts of everything it calls are final. Facts are the dataflow
// substrate of the v2 analyzers: mutexhold consults FactBlocks to know
// whether a call may block, ctxflow consults FactObservesCtx to decide
// whether passing a context into a callee counts as observing it, and
// FactLoops marks the transitive "does iterative work" property that
// distinguishes a heavy solver loop from a field copy.
type Fact uint8

const (
	// FactBlocks marks a function that may block the calling goroutine on
	// something other than plain computation: a channel operation, a select
	// with no default, sync.WaitGroup.Wait / sync.Cond.Wait, time.Sleep, a
	// write to an abstract io.Writer (which may be a network connection), a
	// known-blocking net/http or net call, or — transitively — a call to a
	// function already carrying this fact.
	FactBlocks Fact = 1 << iota
	// FactObservesCtx marks a function that actually consults a
	// context.Context it was given: it calls Done/Err/Deadline/Value on a
	// ctx parameter, or forwards that parameter to a callee that observes
	// it. A function that accepts a ctx and carries this fact is a valid
	// cancellation boundary.
	FactObservesCtx
	// FactLoops marks a function whose execution is iterative: its body
	// contains a for/range statement, or it calls a function carrying this
	// fact. Calling a FactLoops function from inside a loop is the shape of
	// routing/LR/refine work whose duration warrants a cancellation check.
	FactLoops
)

// FactSet maps declared functions to their facts, accumulated across the
// whole module as packages are checked in dependency order.
type FactSet struct {
	m map[*types.Func]Fact
}

// newFactSet returns an empty fact set.
func newFactSet() *FactSet { return &FactSet{m: map[*types.Func]Fact{}} }

// Has reports whether fn carries the fact. Nil or unknown functions carry
// none (unknown callees are assumed cheap and non-blocking: facts must be
// sound for the code we can see, silent for the code we cannot).
func (fs *FactSet) Has(fn *types.Func, f Fact) bool {
	if fs == nil || fn == nil {
		return false
	}
	return fs.m[fn]&f != 0
}

// Blocks reports FactBlocks for fn.
func (fs *FactSet) Blocks(fn *types.Func) bool { return fs.Has(fn, FactBlocks) }

// ObservesCtx reports FactObservesCtx for fn.
func (fs *FactSet) ObservesCtx(fn *types.Func) bool { return fs.Has(fn, FactObservesCtx) }

// Loops reports FactLoops for fn.
func (fs *FactSet) Loops(fn *types.Func) bool { return fs.Has(fn, FactLoops) }

// merge folds a per-package fact map into the module-wide set. Called on the
// driver goroutine between parallel type-check levels, in deterministic
// package order.
func (fs *FactSet) merge(pkg map[*types.Func]Fact) {
	for fn, f := range pkg {
		fs.m[fn] |= f
	}
}

// stdBlocking lists standard-library functions and methods that block, by
// full go/types object string prefix. Method entries use the canonical
// "(pkg.Recv).Name" form. The table is deliberately small: it seeds the
// transitive FactBlocks computation; most propagation happens through
// module-internal calls.
var stdBlocking = map[string]bool{
	"time.Sleep":                        true,
	"(*sync.WaitGroup).Wait":            true,
	"(*sync.Cond).Wait":                 true,
	"net/http.Get":                      true,
	"net/http.Post":                     true,
	"net/http.PostForm":                 true,
	"net/http.Head":                     true,
	"net/http.ListenAndServe":           true,
	"net/http.ListenAndServeTLS":        true,
	"(*net/http.Client).Do":             true,
	"(*net/http.Client).Get":            true,
	"(*net/http.Client).Post":           true,
	"(*net/http.Client).PostForm":       true,
	"(*net/http.Client).Head":           true,
	"(*net/http.Server).ListenAndServe": true,
	"(*net/http.Server).Serve":          true,
	"(*net/http.Server).Shutdown":       true,
	"net.Dial":                          true,
	"net.DialTimeout":                   true,
	"net.Listen":                        true,
	"io.Copy":                           true,
	"io.CopyN":                          true,
	"io.ReadAll":                        true,
	"(*os/exec.Cmd).Run":                true,
	"(*os/exec.Cmd).Wait":               true,
	"(*os/exec.Cmd).Output":             true,
	"(*os/exec.Cmd).CombinedOutput":     true,
}

// safeWriterTypes are concrete in-memory sinks: fmt.Fprint*/Write* calls
// aimed at them never block. Anything written through an abstract io.Writer
// may reach a socket and counts as blocking.
var safeWriterTypes = map[string]bool{
	"*bytes.Buffer":    true,
	"*strings.Builder": true,
}

// funcKey renders a *types.Func in the form used by stdBlocking.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() == nil {
			return fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return "(" + types.TypeString(sig.Recv().Type(), nil) + ")." + fn.Name()
}

// computeFacts derives the facts of every function declared in pkg, given
// the already-final facts of its dependencies. It iterates to a fixpoint
// within the package so intra-package call chains and mutual recursion
// resolve regardless of declaration order.
func computeFacts(pkg *Package, global *FactSet) map[*types.Func]Fact {
	info := pkg.Info

	// Collect the declared functions and their bodies.
	type declared struct {
		fn   *types.Func
		body *ast.BlockStmt
		ctx  *types.Var // the context.Context parameter, if any
	}
	var decls []declared
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, declared{fn: fn, body: fd.Body, ctx: ctxParam(info, fd.Type)})
		}
	}

	local := map[*types.Func]Fact{}
	lookup := func(fn *types.Func) Fact {
		if f, ok := local[fn]; ok {
			return f
		}
		if global != nil {
			return global.m[fn]
		}
		return 0
	}

	// Fixpoint: each round scans every body; facts only grow, so the loop
	// terminates in at most len(decls) * numFacts rounds (in practice 2-3).
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			have := local[d.fn]
			derived := scanBody(info, d.body, d.ctx, lookup)
			if derived|have != have {
				local[d.fn] = derived | have
				changed = true
			}
		}
	}
	return local
}

// ctxParam returns the function's context.Context parameter variable, or nil.
func ctxParam(info *types.Info, ft *ast.FuncType) *types.Var {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		t := info.TypeOf(field.Type)
		if !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// scanBody derives the facts observable in one function body, resolving
// callee facts through lookup.
func scanBody(info *types.Info, body *ast.BlockStmt, ctx *types.Var, lookup func(*types.Func) Fact) Fact {
	var facts Fact
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Facts inside a literal belong to the enclosing function: the
			// literal usually runs on its behalf (deferred unlocks, par
			// closures). This over-approximates for stored closures, which
			// is the safe direction for blocks/loops and matches how the
			// solver uses its ctx (closures capture the outer ctx).
			return true
		case *ast.ForStmt, *ast.RangeStmt:
			facts |= FactLoops
		case *ast.SendStmt:
			facts |= FactBlocks
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				facts |= FactBlocks
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				facts |= FactBlocks
			}
		case *ast.CallExpr:
			facts |= callFacts(info, n, ctx, lookup)
		}
		return true
	})
	return facts
}

// selectHasDefault reports whether the select has a default clause (making
// it non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// callFacts derives the facts contributed by one call expression.
func callFacts(info *types.Info, call *ast.CallExpr, ctx *types.Var, lookup func(*types.Func) Fact) Fact {
	var facts Fact
	callee := calleeFunc(info, call)

	// Direct observation: ctx.Done() / Err() / Deadline() / Value().
	if ctx != nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && info.Uses[id] == ctx {
				switch sel.Sel.Name {
				case "Done", "Err", "Deadline", "Value":
					facts |= FactObservesCtx
				}
			}
		}
	}

	if callee != nil {
		key := funcKey(callee)
		if stdBlocking[key] {
			facts |= FactBlocks
		}
		cf := lookup(callee)
		if cf&FactBlocks != 0 {
			facts |= FactBlocks
		}
		if cf&FactLoops != 0 {
			facts |= FactLoops
		}
		// Forwarding the ctx parameter to an observer counts as observing.
		if ctx != nil && cf&FactObservesCtx != 0 && passesVar(info, call, ctx) {
			facts |= FactObservesCtx
		}
		// context.WithCancel/WithTimeout/WithDeadline derive a child whose
		// machinery watches the parent: forwarding ctx there is observation.
		if ctx != nil && callee.Pkg() != nil && callee.Pkg().Path() == "context" && passesVar(info, call, ctx) {
			switch callee.Name() {
			case "WithCancel", "WithTimeout", "WithDeadline", "WithCancelCause":
				facts |= FactObservesCtx
			}
		}
	}

	// Writes through an abstract writer may reach a socket.
	if isAbstractWriterCall(info, call) {
		facts |= FactBlocks
	}
	return facts
}

// calleeFunc resolves the statically-known callee of a call, or nil for
// dynamic calls (func values, interface methods resolve to the interface
// method object, which is fine — facts attach to it too if computed).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// passesVar reports whether any argument of the call mentions the variable.
func passesVar(info *types.Info, call *ast.CallExpr, v *types.Var) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isAbstractWriterCall reports whether the call pushes bytes through a
// writer whose concrete destination is unknown: fmt.Fprint* with a
// non-concrete first argument, or a Write/WriteString/Flush method on an
// interface-typed receiver. Writes into *bytes.Buffer / *strings.Builder
// are in-memory and never block.
func isAbstractWriterCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// fmt.Fprint / Fprintf / Fprintln: inspect the destination argument.
	if x, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := info.Uses[x].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" {
			if strings.HasPrefix(sel.Sel.Name, "Fprint") && len(call.Args) > 0 {
				return !isSafeWriter(info.TypeOf(call.Args[0]))
			}
			return false
		}
	}
	// writer.Write([]byte) / WriteString / Flush on an abstract receiver.
	switch sel.Sel.Name {
	case "Write", "WriteString", "Flush":
	default:
		return false
	}
	recv := info.TypeOf(sel.X)
	if recv == nil {
		return false
	}
	if _, ok := recv.Underlying().(*types.Interface); ok {
		return true
	}
	return false
}

// isSafeWriter reports whether the destination type is a concrete in-memory
// sink.
func isSafeWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	return safeWriterTypes[types.TypeString(t, nil)]
}
