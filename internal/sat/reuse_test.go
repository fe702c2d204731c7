package sat

import (
	"math/rand"
	"testing"
)

// TestModelReuseMatchesSearch runs gate-DAG call sequences in the style of
// FuzzGateDAG, with many repeated assumption lists, on two solvers: one
// answers a repeat of its last Sat call from the standing model, the other
// (noModelReuse) searches again. The skipped search would have re-propagated
// the model and moved watchers, so every later answer is compared too: the
// same status, the same value for every variable after Sat, the same failed
// assumptions after Unsat.
func TestModelReuseMatchesSearch(t *testing.T) {
	reused := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &circuit{nIn: 2 + rng.Intn(5)}
		a, b := New(), New()
		b.noModelReuse = true
		newVars(a, c.nIn)
		newVars(b, c.nIn)
		addGate := func() {
			c.addGate(rng, a)
			k := len(c.ops) - 1
			b.AddGate(c.ops[k], c.fanins[k]...)
		}
		for k := 2 + rng.Intn(10); k > 0; k-- {
			addGate()
		}
		var assumps []Lit
		for q := 0; q < 60; q++ {
			switch rng.Intn(8) {
			case 0:
				addGate()
			case 1:
				cl := []Lit{c.randomLit(rng), c.randomLit(rng)}
				c.extra = append(c.extra, cl)
				if !c.satisfiable(nil) {
					c.extra = c.extra[:len(c.extra)-1]
					break
				}
				a.AddClause(cl...)
				b.AddClause(cl...)
			}
			switch rng.Intn(6) {
			case 1: // extend
				for k := 1 + rng.Intn(3); k > 0; k-- {
					assumps = append(assumps, c.randomLit(rng))
				}
			case 2: // shrink
				assumps = assumps[:len(assumps)-rng.Intn(len(assumps)+1)]
			case 3: // diverge
				assumps = append(assumps[:rng.Intn(len(assumps)+1)], c.randomLit(rng))
			} // otherwise repeat
			props := a.stats.Propagations
			got, want := a.Solve(assumps...), b.Solve(assumps...)
			if got != want {
				t.Fatalf("seed %d query %d: Solve(%v) = %v with model reuse, %v without", seed, q, assumps, got, want)
			}
			if got == Sat && a.stats.Propagations == props && len(assumps) > 0 {
				reused++
			}
			if got == Sat {
				for v := Var(0); int(v) < a.NumVars(); v++ {
					if a.ValueOf(v) != b.ValueOf(v) {
						t.Fatalf("seed %d query %d: v%d = %v with model reuse, %v without", seed, q, v, a.ValueOf(v), b.ValueOf(v))
					}
				}
			}
		}
	}
	if reused < 500 {
		t.Fatalf("%d repeats answered from the standing model: the sequences no longer exercise reuse", reused)
	}
}
