// Package atomicpublish defines an analyzer enforcing the repository's
// read-copy-update discipline: a value handed to atomic.Pointer.Store is
// published — lock-free readers may hold it the instant Store returns — so
// the publishing function must never write to it afterwards.
//
// Publication comes in two modes:
//
//   - Store(&x) publishes x's storage. Any later write to x (assignment,
//     x.f = …, x[i] = …, x++) on any path after the Store mutates memory a
//     reader may be traversing and is reported. Redeclaring x with := opens
//     fresh storage and clears the taint — the copy-on-write loop shape,
//     `next := make(…); fill next; snap.Store(&next)` once per iteration.
//
//   - Store(p) for pointer-typed p publishes p's referent. Later writes
//     through p (p.f = …, *p = …) are reported; rebinding p itself
//     (p = &T{…}) retargets the variable away from the published object and
//     clears the taint. Copying p (q := p) taints the copy too.
//
// The analysis is a forward may-analysis over the function's control-flow
// graph: a write is reported if any path publishes the variable first, so
// a Store inside one branch poisons the join. It is intra-procedural;
// passing a published pointer to a mutating callee is not seen.
package atomicpublish

import (
	"go/ast"
	"go/token"
	"go/types"

	"fusecu/internal/analysis"
	"fusecu/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicpublish",
	Doc:  "values stored through atomic.Pointer must not be written after publication; redeclare fresh storage per update instead",
	Run:  run,
}

// Taint bits per variable.
const (
	pubAddr uint8 = 1 << iota // its address was published: the storage is shared
	pubRef                    // its referent was published: writes through it are shared
)

// fact maps a variable to its publication taint. Join is per-key bit union
// (may-analysis: published on any path counts).
type fact map[types.Object]uint8

func (f fact) clone() fact {
	g := make(fact, len(f))
	for k, v := range f {
		g[k] = v
	}
	return g
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		analysis.ForEachFuncBody(file, func(owner ast.Node, body *ast.BlockStmt) {
			checkFunc(pass, body)
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	if !mentionsStore(body) {
		return
	}
	g := cfg.New(body)
	c := &checker{pass: pass}
	in := cfg.Forward(g, cfg.Analysis[fact]{
		Entry: fact{},
		Join: func(a, b fact) fact {
			out := a.clone()
			for k, v := range b {
				out[k] |= v
			}
			return out
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if b[k] != v {
					return false
				}
			}
			return true
		},
		Transfer: func(b *cfg.Block, f fact) fact {
			out := f.clone()
			for _, n := range b.Nodes {
				c.apply(n, out, false)
			}
			return out
		},
	})

	// Replay each reachable block with reporting on.
	for b, f := range in {
		cur := f.clone()
		for _, n := range b.Nodes {
			c.apply(n, cur, true)
		}
	}
}

// mentionsStore pre-screens the body for a .Store( selector call so the CFG
// machinery only runs on functions that can publish.
func mentionsStore(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Store" {
			found = true
		}
		return !found
	})
	return found
}

type checker struct {
	pass *analysis.Pass
}

// apply interprets one CFG node, mutating f in place. With report set it
// also emits diagnostics for writes to published variables.
func (c *checker) apply(n ast.Node, f fact, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.applyAssign(n, f, report)
	case *ast.IncDecStmt:
		c.applyWrite(n.X, n.Pos(), f, report, false)
	case *ast.DeferStmt:
		// A deferred Store publishes at every return; treat it as publishing
		// immediately (conservative for the writes that follow textually).
		c.applyCalls(n.Call, f)
	case *ast.RangeStmt:
		// The CFG puts the whole RangeStmt at the loop head; its body
		// statements live in their own blocks, so interpret only the range
		// clause here. A := clause redeclares fresh key/value storage.
		c.applyCalls(n.X, f)
		if n.Tok == token.DEFINE {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
						delete(f, obj)
					}
				}
			}
		}
	case *ast.DeclStmt:
		// `var x = …` in a loop reuses x's object across iterations: the
		// declaration opens fresh storage, clearing back-edge taint.
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					c.applyCalls(v, f)
				}
				for _, name := range vs.Names {
					if obj := c.pass.TypesInfo.ObjectOf(name); obj != nil {
						delete(f, obj)
					}
				}
			}
		}
	default:
		if e, ok := n.(ast.Expr); ok {
			c.applyCalls(e, f)
		} else if s, ok := n.(ast.Stmt); ok {
			c.applyCallsInStmt(s, f)
		}
	}
}

// applyAssign handles kills (:=), writes and alias propagation, then any
// Store calls in the right-hand sides.
func (c *checker) applyAssign(a *ast.AssignStmt, f fact, report bool) {
	for _, rhs := range a.Rhs {
		c.applyCalls(rhs, f)
	}
	for i, lhs := range a.Lhs {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			if a.Tok == token.DEFINE {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					// Fresh storage: clear any taint carried around a loop
					// back edge, then inherit referent taint from an alias.
					delete(f, obj)
					c.propagateAlias(a, i, obj, f)
					continue
				}
				// `x, y := …` redeclaring x re-uses x's object: fall through
				// to the plain-assignment logic.
			}
			obj := c.pass.TypesInfo.ObjectOf(id)
			if obj == nil {
				continue
			}
			if f[obj]&pubAddr != 0 && report {
				c.pass.Reportf(a.Pos(),
					"write to %s after its address was published via atomic Store; build a fresh value and re-publish instead", id.Name)
			}
			// Rebinding points the variable at new storage: referent taint
			// no longer applies to it.
			f[obj] &^= pubRef
			c.propagateAlias(a, i, obj, f)
			continue
		}
		c.applyWrite(lhs, a.Pos(), f, report, true)
	}
}

// propagateAlias copies referent taint across `lhsObj = rhsIdent` /
// `lhsObj := rhsIdent`: both now reach the published object.
func (c *checker) propagateAlias(a *ast.AssignStmt, i int, lhsObj types.Object, f fact) {
	if len(a.Rhs) != len(a.Lhs) {
		return
	}
	rhs, ok := ast.Unparen(a.Rhs[i]).(*ast.Ident)
	if !ok {
		return
	}
	robj := c.pass.TypesInfo.ObjectOf(rhs)
	if robj == nil {
		return
	}
	if f[robj]&pubRef != 0 {
		f[lhsObj] |= pubRef
	}
}

// applyWrite reports a write through a compound lvalue (x.f, x[i], *x)
// whose base variable is tainted in any mode.
func (c *checker) applyWrite(lhs ast.Expr, pos token.Pos, f fact, report, compound bool) {
	base := baseIdent(lhs)
	if base == nil {
		return
	}
	obj := c.pass.TypesInfo.ObjectOf(base)
	if obj == nil || f[obj] == 0 {
		return
	}
	if !report {
		return
	}
	switch {
	case f[obj]&pubAddr != 0:
		c.pass.Reportf(pos,
			"write to %s after its address was published via atomic Store; build a fresh value and re-publish instead", base.Name)
	case f[obj]&pubRef != 0:
		c.pass.Reportf(pos,
			"write through %s after its referent was published via atomic Store; build a fresh value and re-publish instead", base.Name)
	}
}

// applyCalls finds atomic Pointer.Store calls anywhere in e (not descending
// into function literals) and records their publications.
func (c *checker) applyCalls(e ast.Expr, f fact) {
	analysis.InspectShallow(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.applyStore(call, f)
		return true
	})
}

func (c *checker) applyCallsInStmt(s ast.Stmt, f fact) {
	analysis.InspectShallow(s, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			c.applyStore(call, f)
		}
		return true
	})
}

// applyStore records the publication effected by call if it is a Store on
// an atomic.Pointer (or atomic.Value, whose boxed value obeys the same
// rule).
func (c *checker) applyStore(call *ast.CallExpr, f fact) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" || len(call.Args) != 1 {
		return
	}
	recv := c.pass.TypeOf(sel.X)
	if recv == nil {
		return
	}
	if !analysis.IsNamed(recv, "sync/atomic", "Pointer") && !analysis.IsNamed(recv, "sync/atomic", "Value") {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				f[obj] |= pubAddr
			}
		}
		return
	}
	if id, ok := arg.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				f[obj] |= pubRef
			}
		}
	}
}

// baseIdent returns the root identifier of an lvalue chain (x in x.f[i].g),
// or nil when the base is not a plain variable.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
