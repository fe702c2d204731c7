package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the packages whose behaviour must be a pure
// function of their inputs: replay-based forking re-executes a RunFunc
// from scratch and replays recorded branch decisions, so any wall-clock,
// PRNG, goroutine-scheduling or map-order dependence on these paths makes
// a recorded prefix diverge from its replay and silently corrupts the
// exploration. internal/harness and internal/fuzz are the sanctioned
// homes for timing and randomness (campaign budgets, fuzzing) and are
// deliberately not listed; cmd/ and examples/ are presentation layers.
// internal/obs is likewise exempt: it is a wall-clock side channel by
// design (span timing), and its contract — nothing observable flows back
// into an exploration — is what keeps the scoped packages that call into
// it deterministic (see internal/obs and TestDeterminismObsExempt).
var deterministicPkgs = []string{
	"symriscv/internal/bitblast",
	"symriscv/internal/core",
	"symriscv/internal/cosim",
	"symriscv/internal/faults",
	"symriscv/internal/iss",
	"symriscv/internal/microrv32",
	"symriscv/internal/pipecore",
	"symriscv/internal/querycache",
	"symriscv/internal/riscv",
	"symriscv/internal/rtl",
	"symriscv/internal/rvfi",
	"symriscv/internal/sat",
	"symriscv/internal/smt",
	"symriscv/internal/solver",
}

func inDeterministicScope(pkgPath string) bool {
	for _, p := range deterministicPkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// Pure-value helpers (time.Duration arithmetic, ParseDuration) are fine.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// Determinism reports wall-clock calls, math/rand imports, goroutine
// launches and order-sensitive map iteration inside the deterministic
// kernel packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/math.rand/goroutines/order-sensitive map iteration in the deterministic kernel " +
		"(replay-based forking requires runs to be bit-for-bit repeatable)",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !inDeterministicScope(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"import of %s in deterministic package %s: use a seeded in-package PRNG or move the randomness to internal/harness or internal/fuzz",
					strings.Trim(imp.Path.Value, `"`), pass.PkgPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine launch in deterministic package %s: goroutine scheduling breaks replay determinism; parallelise at the harness level (independent explorations) instead",
					pass.PkgPath)
			case *ast.CallExpr:
				if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "time" && forbiddenTimeFuncs[fn.Name()] {
					pass.Reportf(n.Pos(),
						"call to time.%s in deterministic package %s: wall-clock must not influence exploration; budget timing belongs in internal/harness",
						fn.Name(), pass.PkgPath)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags `for ... range m` over a map when the loop body has
// effects whose outcome depends on iteration order. Pure accumulation
// (counting, summing, writing into another map, deleting) is order-
// insensitive and allowed.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if reason := orderSensitiveEffect(pass, rng.Body); reason != "" {
		pass.Reportf(rng.Pos(),
			"iteration over map with order-dependent effect (%s) in deterministic package %s: iterate sorted keys instead",
			reason, pass.PkgPath)
	}
}

// orderSensitiveEffect scans a map-range body for constructs whose result
// depends on which key comes first. It returns a short description of the
// first such construct, or "".
func orderSensitiveEffect(pass *Pass, body *ast.BlockStmt) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			reason = "early return selects an arbitrary element"
		case *ast.BranchStmt:
			// A break makes the set of visited keys order-dependent;
			// continue/goto/labels inside the body are fine.
			if n.Tok.String() == "break" {
				reason = "break selects an arbitrary prefix of the keys"
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					reason = "append builds a slice in map order"
					return false
				}
			}
			if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil &&
				strings.HasPrefix(fn.Pkg().Path(), "symriscv/") {
				// Calls into our own packages can allocate term IDs, SAT
				// variables or branch-log entries, all of which are
				// order-visible state.
				reason = "call to " + fn.Pkg().Name() + "." + fn.Name() + " has order-visible effects (IDs, branch log)"
				return false
			}
		case *ast.SendStmt:
			reason = "channel send in map order"
		}
		return true
	})
	return reason
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for builtins, conversions and calls through function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
