package analysis

import (
	"go/ast"
	"go/types"
)

const satPkgPath = "symriscv/internal/sat"

// ClauseImmut reports mutation of []sat.Lit slices that the current
// function does not own. The bit-blaster hands out its cached per-term bit
// slices by reference (the SAT solver copies every clause into its arena,
// so it keeps no caller slice). Writing into such a slice (index
// assignment, copy, in-place sort, or an append whose result is discarded
// into a different variable) corrupts state owned by another package. A function owns a slice only if it
// created it locally via make, a composite literal, or append-growth of
// an owned slice.
var ClauseImmut = &Analyzer{
	Name: "clauseimmut",
	Doc: "forbid mutation of shared []sat.Lit clause slices outside internal/sat " +
		"(the bit-blaster's caches alias their slices)",
	Run: runClauseImmut,
}

func runClauseImmut(pass *Pass) error {
	if isPkgUnder(pass.PkgPath, satPkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		owned := collectOwnedLitSlices(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkLitIndexAssign(pass, owned, n)
			case *ast.CallExpr:
				checkLitCall(pass, owned, f, n)
			}
			return true
		})
	}
	return nil
}

// isLitSlice reports whether t is []sat.Lit (by the named element type's
// package path and name, so fixtures importing the real package match).
func isLitSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Lit" &&
		obj.Pkg() != nil && obj.Pkg().Path() == satPkgPath
}

// collectOwnedLitSlices computes, per file, the set of local []sat.Lit
// variables provably created by the enclosing function: initialized from
// make, a composite literal, nil, or append-growth of an owned slice, and
// never reassigned from a foreign source. The analysis runs to a fixpoint
// so append chains resolve regardless of statement order.
func collectOwnedLitSlices(pass *Pass, f *ast.File) map[*types.Var]bool {
	type evidence struct{ ownedInit, foreignInit bool }
	ev := make(map[*types.Var]*evidence)
	var assigns []struct {
		v   *types.Var
		rhs ast.Expr
	}

	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || !isLitSlice(v.Type()) || v.IsField() {
			return
		}
		if ev[v] == nil {
			ev[v] = &evidence{}
		}
		assigns = append(assigns, struct {
			v   *types.Var
			rhs ast.Expr
		}{v, rhs})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						record(id, n.Rhs[i])
					}
				}
			} else {
				// Multi-value assignment from a call: foreign.
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						record(id, nil)
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				} else if len(n.Values) == 0 {
					// var x []sat.Lit — zero value, owned.
					rhs = ast.NewIdent("nil")
				}
				record(id, rhs)
			}
		case *ast.RangeStmt:
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok && n.Value != nil {
				record(id, nil) // range element: foreign
			}
		}
		return true
	})

	owned := make(map[*types.Var]bool)
	// Fixpoint: a variable is owned when every recorded assignment to it is
	// an owning expression under the current owned set.
	for changed := true; changed; {
		changed = false
		next := make(map[*types.Var]bool)
		for v := range ev {
			allOwned := true
			for _, a := range assigns {
				if a.v != v {
					continue
				}
				if !isOwningExpr(pass, owned, a.rhs) {
					allOwned = false
					break
				}
			}
			next[v] = allOwned
		}
		for v, o := range next {
			if owned[v] != o {
				owned[v] = o
				changed = true
			}
		}
	}
	return owned
}

// isOwningExpr reports whether rhs yields a freshly created slice under
// the current owned set.
func isOwningExpr(pass *Pass, owned map[*types.Var]bool, rhs ast.Expr) bool {
	if rhs == nil {
		return false
	}
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		if v, ok := pass.Info.Uses[e].(*types.Var); ok {
			return owned[v]
		}
		return false
	case *ast.CompositeLit:
		return true
	case *ast.SliceExpr:
		return isOwningExpr(pass, owned, e.X)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					return true
				case "append":
					return len(e.Args) > 0 && isOwningExpr(pass, owned, e.Args[0])
				}
				return false
			}
		}
		// A conversion carries its operand's ownership (the clone idiom
		// append([]sat.Lit(nil), shared...) starts from an owned nil).
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return isOwningExpr(pass, owned, e.Args[0])
		}
		// A call into the same package returns a slice that package owns;
		// the invariant polices the package boundary, not intra-package
		// helper plumbing (e.g. the bit-blaster's own adder/negBits).
		if fn := calleeFunc(pass, e); fn != nil && fn.Pkg() == pass.Pkg {
			return true
		}
	}
	return false
}

// checkLitIndexAssign flags `x[i] = v` where x is a []sat.Lit the function
// does not own.
func checkLitIndexAssign(pass *Pass, owned map[*types.Var]bool, n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok || !isLitSlice(pass.TypeOf(idx.X)) {
			continue
		}
		if isOwningExpr(pass, owned, idx.X) {
			continue
		}
		pass.Reportf(lhs.Pos(),
			"write into shared []sat.Lit slice outside %s: bit slices alias the bit-blaster's caches; copy before mutating",
			satPkgPath)
	}
}

// checkLitCall flags copy/sort/append misuse on foreign []sat.Lit slices.
func checkLitCall(pass *Pass, owned map[*types.Var]bool, f *ast.File, call *ast.CallExpr) {
	ownedArg := func(e ast.Expr) bool { return isOwningExpr(pass, owned, e) }

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "copy":
				if len(call.Args) == 2 && isLitSlice(pass.TypeOf(call.Args[0])) && !ownedArg(call.Args[0]) {
					pass.Reportf(call.Pos(),
						"copy into shared []sat.Lit slice outside %s: destination aliases bit-blaster state",
						satPkgPath)
				}
			case "append":
				if len(call.Args) > 0 && isLitSlice(pass.TypeOf(call.Args[0])) &&
					!ownedArg(call.Args[0]) && !isSelfAppend(pass, f, call) {
					pass.Reportf(call.Pos(),
						"append to shared []sat.Lit slice outside %s: may write through the shared backing array; copy first",
						satPkgPath)
				}
			}
			return
		}
	}
	// In-place library sorts, reversals and edits on a foreign clause slice;
	// read-only calls such as slices.Contains or slices.Equal are fine.
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "sort.Sort", "sort.Stable", "sort.Slice", "sort.SliceStable",
			"slices.Sort", "slices.SortFunc", "slices.SortStableFunc", "slices.Reverse",
			"slices.Insert", "slices.Delete", "slices.DeleteFunc", "slices.Compact",
			"slices.CompactFunc", "slices.Replace":
			for _, arg := range call.Args {
				if isLitSlice(pass.TypeOf(arg)) && !ownedArg(arg) {
					pass.Reportf(call.Pos(),
						"in-place %s.%s on shared []sat.Lit slice outside %s: copy before mutating",
						fn.Pkg().Name(), fn.Name(), satPkgPath)
				}
			}
		}
	}
}

// isSelfAppend reports whether the append call is the canonical grow idiom
// `x = append(x, ...)`: the result is assigned back to the same lvalue it
// grows, which replaces the old value rather than mutating a reader's view.
func isSelfAppend(pass *Pass, f *ast.File, call *ast.CallExpr) bool {
	self := false
	ast.Inspect(f, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || self {
			return !self
		}
		for i, rhs := range asg.Rhs {
			if ast.Unparen(rhs) == call && i < len(asg.Lhs) && len(call.Args) > 0 {
				if exprEqual(asg.Lhs[i], call.Args[0]) {
					self = true
				}
			}
		}
		return true
	})
	return self
}

// exprEqual structurally compares simple lvalue chains (idents, selectors,
// index expressions with ident/literal indices).
func exprEqual(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && exprEqual(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && exprEqual(x.X, y.X) && exprEqual(x.Index, y.Index)
	case *ast.BasicLit:
		y, ok := b.(*ast.BasicLit)
		return ok && x.Value == y.Value
	}
	return false
}
