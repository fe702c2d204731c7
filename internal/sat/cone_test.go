package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// circuit is a random gate DAG over nIn inputs, mirrored outside the solver
// so brute force can evaluate it.
type circuit struct {
	nIn    int
	ops    []GateOp // gate k defines variable nIn+k
	fanins [][]Lit
	extra  [][]Lit // AddClause clauses
}

// chooser draws the circuit's random choices: a *rand.Rand, or fuzz bytes.
type chooser interface{ Intn(n int) int }

// addGate creates a random gate over the existing variables in s and c.
func (c *circuit) addGate(rng chooser, s *Solver) {
	n := c.nIn + len(c.ops)
	op := GateOp(1 + rng.Intn(3))
	ins := make([]Lit, op.arity())
	for k := range ins {
		// Favour recent variables so the DAG grows deep, not just wide.
		v := n - 1 - rng.Intn(min(n, 4))
		if rng.Intn(3) == 0 {
			v = rng.Intn(n)
		}
		ins[k] = MkLit(Var(v), rng.Intn(2) == 1)
	}
	if o := s.AddGate(op, ins...); o != MkLit(Var(n), false) {
		panic("gate variable out of order")
	}
	c.ops = append(c.ops, op)
	c.fanins = append(c.fanins, ins)
}

// randomLit picks a literal over the circuit's variables, gates more often
// than inputs.
func (c *circuit) randomLit(rng chooser) Lit {
	n := c.nIn + len(c.ops)
	v := rng.Intn(n)
	if len(c.ops) > 0 && rng.Intn(3) != 0 {
		v = c.nIn + rng.Intn(len(c.ops))
	}
	return MkLit(Var(v), rng.Intn(2) == 1)
}

// clauses returns the extra clauses plus every gate definition.
func (c *circuit) clauses() [][]Lit {
	out := append([][]Lit(nil), c.extra...)
	for k, op := range c.ops {
		out = append(out, tseitin(op, MkLit(Var(c.nIn+k), false), c.fanins[k])...)
	}
	return out
}

// satisfiable reports by enumeration of the inputs whether the extra clauses
// and the assumptions hold together.
func (c *circuit) satisfiable(assumps []Lit) bool {
	val := make([]bool, c.nIn+len(c.ops))
	holds := func(l Lit) bool { return val[l.Var()] != l.Sign() }
	for m := 0; m < 1<<uint(c.nIn); m++ {
		for i := 0; i < c.nIn; i++ {
			val[i] = m>>uint(i)&1 == 1
		}
		for k, op := range c.ops {
			in := c.fanins[k]
			switch op {
			case GateAnd:
				val[c.nIn+k] = holds(in[0]) && holds(in[1])
			case GateXor:
				val[c.nIn+k] = holds(in[0]) != holds(in[1])
			case GateMux:
				val[c.nIn+k] = holds(in[2])
				if holds(in[0]) {
					val[c.nIn+k] = holds(in[1])
				}
			}
		}
		ok := true
		for _, l := range assumps {
			ok = ok && holds(l)
		}
		for _, cl := range c.extra {
			sat := false
			for _, l := range cl {
				sat = sat || holds(l)
			}
			ok = ok && sat
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomGateDAGDifferential drives random AND/XOR/MUX circuits through
// sequences of assumption sets that share prefixes but reach different
// cones, so trail reuse keeps assignments made under an earlier cone and
// out-of-cone implications are skipped and revisited. Gates and clauses are
// added between solves, while the trail is live. Every answer must agree
// with brute force over the inputs, every Sat answer must be complete and
// its model must satisfy every clause, gate definitions included, and every
// Unsat core must be unsatisfiable.
func TestRandomGateDAGDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		c := &circuit{nIn: 2 + rng.Intn(5)}
		s := New()
		newVars(s, c.nIn)
		for k := 4 + rng.Intn(12); k > 0; k-- {
			c.addGate(rng, s)
		}
		var assumps []Lit
		for q := 0; q < 30; q++ {
			switch rng.Intn(8) {
			case 0:
				c.addGate(rng, s)
			case 1:
				// A clause that keeps the instance satisfiable, so later
				// queries still have models to check.
				cl := []Lit{c.randomLit(rng), c.randomLit(rng)}
				c.extra = append(c.extra, cl)
				if !c.satisfiable(nil) {
					c.extra = c.extra[:len(c.extra)-1]
					break
				}
				s.AddClause(cl...)
			}
			// Keep most of the previous assumptions, then branch off.
			assumps = assumps[:len(assumps)-rng.Intn(min(len(assumps), 3)+1)]
			for k := 1 + rng.Intn(2); k > 0; k-- {
				assumps = append(assumps, c.randomLit(rng))
			}
			got, want := s.Solve(assumps...), c.satisfiable(assumps)
			if (got == Sat) != want {
				t.Fatalf("iter %d query %d: Solve(%v) = %v, brute force sat=%v", iter, q, assumps, got, want)
			}
			if got == Unsat {
				continue
			}
			if v := firstOpen(s); v >= 0 {
				t.Fatalf("iter %d query %d: v%d open in a Sat answer", iter, q, v)
			}
			if cl := firstViolated(s, c.clauses()); cl != nil {
				t.Fatalf("iter %d query %d: model violates %v", iter, q, cl)
			}
			for _, l := range assumps {
				if !s.LitValue(l) {
					t.Fatalf("iter %d query %d: model violates assumption %v", iter, q, l)
				}
			}
		}
	}
}

// checkHeapRebuild makes every openCone of s compare its heap array, element
// by element, with a full rebuild: every unassigned decision variable of the
// cone inserted in cone order. It also recounts the cone's unassigned
// variables and the assigned ones outside it against nOpen and nOutside. It
// returns the count of the openCone calls that rebuilt incrementally, after
// a Sat answer.
func checkHeapRebuild(t testing.TB, s *Solver) *int {
	var ref varHeap
	incremental := new(int)
	s.afterOpenCone = func() {
		if s.coneFull {
			*incremental++
		}
		open, outside := 0, 0
		for v := range s.assigns {
			switch in, assigned := s.vflags[v]&fInCone != 0, s.assigns[v] < uint8(lUndef); {
			case in && !assigned:
				open++
			case !in && assigned:
				outside++
			}
		}
		if s.nOpen != open || s.nOutside != outside {
			t.Fatalf("nOpen %d, nOutside %d; recounted %d, %d", s.nOpen, s.nOutside, open, outside)
		}
		ref.clear()
		for _, v := range s.cone {
			if s.decision[v] && s.assigns[v] >= uint8(lUndef) {
				ref.insert(v, s.activity)
			}
		}
		if !slices.Equal(s.order.heap, ref.heap) {
			t.Fatalf("heap after openCone %v, full rebuild %v", s.order.heap, ref.heap)
		}
	}
	return incremental
}
