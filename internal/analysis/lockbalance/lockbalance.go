// Package lockbalance defines a path-sensitive analyzer for mutex
// discipline: every sync.Mutex/RWMutex Lock must be released on every path
// that reaches a return (an Unlock on the path or a defer registered on the
// path), and nothing that can block — a channel send or receive, a select
// without default, WaitGroup.Wait, time.Sleep — may run while a lock is
// held.
//
// The parallel engines' merge sections, the service's table registry and
// the fault injector all follow a hold-briefly discipline: the mutex guards
// a few map operations and is released before anything that can park the
// goroutine. Violating it doesn't fail loudly — it deadlocks under load or
// stalls every request queued on the lock — so the invariant is enforced at vet time on the control-flow
// graph (internal/analysis/cfg) with a forward may-analysis of held locks:
// a leak is reported when some path reaches a return still holding a lock
// with no deferred unlock registered on that path.
//
// Allowances: calls to functions whose name ends in "Locked" are permitted
// while holding a lock — the repo's convention for helpers documented as
// "caller holds mu" (e.g. a publishLocked that republishes a snapshot
// under the mutex by design). sync.Cond.Wait is likewise
// exempt (it must be called with the lock held). Cross-function lock flow
// (a method that locks and a sibling that unlocks) is out of scope; the
// -race CI job backstops it dynamically.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fusecu/internal/analysis"
	"fusecu/internal/analysis/cfg"
)

// Analyzer enforces balanced, non-blocking lock sections on all paths.
var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc: "flag sync.Mutex/RWMutex sections that leak a lock on some path to return, and channel " +
		"sends/receives, selects, WaitGroup.Wait or time.Sleep performed while a lock may be held " +
		"(calls to *Locked helpers are allowed by convention)",
	Run: run,
}

// Possible states of one lock on one path, tracked as a bitmask so a fact
// captures every state the lock can be in across the paths that merged.
const (
	sFree    uint8 = 1 << iota // not held, no deferred unlock
	sHeld                      // held, no deferred unlock registered
	sFreeDef                   // not held, deferred unlock registered
	sHeldDef                   // held, deferred unlock registered
)

// lockFact maps a lock key ("sh.mu", "b.mu#r") to the bitmask of its
// possible states. Absent keys are implicitly {sFree}.
type lockFact map[string]uint8

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// mayHold reports whether any tracked lock can be held in this fact.
func (f lockFact) mayHold() (string, bool) {
	for k, v := range f {
		if v&(sHeld|sHeldDef) != 0 {
			return k, true
		}
	}
	return "", false
}

func join(a, b lockFact) lockFact {
	out := a.clone()
	for k, v := range b {
		out[k] |= v
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			out[k] |= sFree
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out[k] |= sFree
		}
	}
	return out
}

func equal(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
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
	// Fast path: skip functions without lock operations.
	if !mentionsSync(pass, body) {
		return
	}
	g := cfg.New(body)
	c := &checker{pass: pass, nonBlockingComms: nonBlockingComms(body)}
	in := cfg.Forward(g, cfg.Analysis[lockFact]{
		Entry: lockFact{},
		Join:  join,
		Equal: equal,
		Transfer: func(b *cfg.Block, f lockFact) lockFact {
			out := f.clone()
			for _, n := range b.Nodes {
				c.apply(n, out, false)
			}
			return out
		},
	})
	// Replay each reachable block once with reporting enabled, checking
	// return points against the path-sensitive facts.
	for _, b := range g.Blocks {
		f, reachable := in[b]
		if !reachable {
			continue
		}
		cur := f.clone()
		for _, n := range b.Nodes {
			c.apply(n, cur, true)
			if ret, ok := n.(*ast.ReturnStmt); ok {
				c.checkRelease(cur, ret.Pos())
			}
		}
		if !b.Panic && fallsToExit(g, b) {
			c.checkRelease(cur, body.End())
		}
	}
}

// fallsToExit reports whether b reaches Exit without an explicit return (the
// implicit fall-off-the-end path).
func fallsToExit(g *cfg.Graph, b *cfg.Block) bool {
	if len(b.Nodes) > 0 {
		if _, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt); ok {
			return false
		}
	}
	for _, s := range b.Succs {
		if s == g.Exit {
			return true
		}
	}
	return false
}

// mentionsSync cheaply pre-screens for Lock calls so lock-free functions
// skip CFG construction.
func mentionsSync(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	analysis.InspectShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, _ := analysis.SyncMethod(pass.TypesInfo, call); fn != nil {
				switch fn.Name() {
				case "Lock", "RLock", "Unlock", "RUnlock":
					found = true
				}
			}
		}
		return true
	})
	return found
}

// nonBlockingComms collects the comm statements of selects that have a
// default clause: those sends/receives never park the goroutine.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	analysis.InspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, cl := range sel.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					out[cc.Comm] = true
				}
			}
		}
		return true
	})
	return out
}

type checker struct {
	pass             *analysis.Pass
	nonBlockingComms map[ast.Node]bool
}

// checkRelease reports locks that can still be held — with no deferred
// unlock registered — when control reaches a return point.
func (c *checker) checkRelease(f lockFact, pos token.Pos) {
	for key, states := range f {
		if states&sHeld != 0 {
			c.pass.Reportf(pos,
				"%s may still be held at this return on some path; unlock it on every path or defer the unlock",
				displayKey(key))
		}
	}
}

// apply interprets one CFG node, updating the fact in place. With report
// set it also emits blocking-while-held diagnostics (the replay pass).
func (c *checker) apply(node ast.Node, f lockFact, report bool) {
	if _, ok := c.nonBlockingComms[node]; ok {
		// Send/receive under a select with default: non-blocking, and the
		// lock transfer below has nothing to do for it either.
		return
	}
	analysis.InspectShallow(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			c.applyDefer(n, f)
			return false
		case *ast.CallExpr:
			if c.applyCall(n, f, report) {
				return false
			}
		case *ast.SendStmt:
			if !c.nonBlockingComms[n] {
				c.reportBlocked(report, n.Pos(), "channel send", f)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.reportBlocked(report, n.Pos(), "channel receive", f)
			}
		}
		return true
	})
}

// applyDefer registers deferred unlocks, including those wrapped in an
// immediate func literal (defer func(){ mu.Unlock() }()).
func (c *checker) applyDefer(d *ast.DeferStmt, f lockFact) {
	mark := func(call *ast.CallExpr) {
		if key, op, ok := c.lockOp(call); ok && op == opUnlock {
			f[key] = shiftDefer(f[key])
		}
	}
	mark(d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				mark(call)
			}
			return true
		})
	}
}

// applyCall interprets one call: a lock operation updates the fact; a known
// blocking call reports. Returns true when the call was consumed (don't
// descend further for lock ops — their receiver expr is not a read).
func (c *checker) applyCall(call *ast.CallExpr, f lockFact, report bool) bool {
	if key, op, ok := c.lockOp(call); ok {
		switch op {
		case opLock:
			f[key] = shiftLock(f[key])
		case opUnlock:
			f[key] = shiftUnlock(f[key])
		}
		return true
	}
	if name, blocking := c.blockingCall(call); blocking {
		c.reportBlocked(report, call.Pos(), name, f)
	}
	return false
}

func (c *checker) reportBlocked(report bool, pos token.Pos, what string, f lockFact) {
	if !report {
		return
	}
	if key, held := f.mayHold(); held {
		c.pass.Reportf(pos,
			"%s while %s may be held can deadlock or stall lock-free readers; release the lock first",
			what, displayKey(key))
	}
}

type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
)

// lockOp classifies call as Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// RWMutex (directly or embedded), returning the canonical lock key.
func (c *checker) lockOp(call *ast.CallExpr) (string, lockOpKind, bool) {
	fn, recv := analysis.SyncMethod(c.pass.TypesInfo, call)
	if fn == nil {
		return "", 0, false
	}
	var op lockOpKind
	read := false
	switch fn.Name() {
	case "Lock":
		op = opLock
	case "RLock":
		op, read = opLock, true
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op, read = opUnlock, true
	default:
		return "", 0, false
	}
	key := types.ExprString(recv)
	if read {
		key += "#r"
	}
	return key, op, true
}

// blockingCall recognizes calls that park the goroutine: WaitGroup.Wait and
// time.Sleep. sync.Cond.Wait is exempt (it requires the lock), as is any
// call to a function whose name ends in "Locked" — the repo's caller-holds-
// the-lock convention.
func (c *checker) blockingCall(call *ast.CallExpr) (string, bool) {
	if fn, recv := analysis.SyncMethod(c.pass.TypesInfo, call); fn != nil {
		if fn.Name() == "Wait" && analysis.IsNamed(c.pass.TypeOf(recv), "sync", "WaitGroup") {
			return "sync.WaitGroup.Wait", true
		}
		return "", false
	}
	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		return "time.Sleep", true
	}
	return "", false
}

// State-transition helpers. A zero (untracked) mask means {sFree}.

func norm(m uint8) uint8 {
	if m == 0 {
		return sFree
	}
	return m
}

func shiftLock(m uint8) uint8 {
	m = norm(m)
	var out uint8
	if m&(sFree|sHeld) != 0 {
		out |= sHeld
	}
	if m&(sFreeDef|sHeldDef) != 0 {
		out |= sHeldDef
	}
	return out
}

func shiftUnlock(m uint8) uint8 {
	m = norm(m)
	var out uint8
	if m&(sFree|sHeld) != 0 {
		out |= sFree
	}
	if m&(sFreeDef|sHeldDef) != 0 {
		out |= sFreeDef
	}
	return out
}

func shiftDefer(m uint8) uint8 {
	m = norm(m)
	var out uint8
	if m&(sFree|sFreeDef) != 0 {
		out |= sFreeDef
	}
	if m&(sHeld|sHeldDef) != 0 {
		out |= sHeldDef
	}
	return out
}

// displayKey strips the read-mode suffix for messages.
func displayKey(key string) string {
	if k, ok := strings.CutSuffix(key, "#r"); ok {
		return k + " (read lock)"
	}
	return key
}
