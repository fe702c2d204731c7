package smt

import (
	"math/rand"
	"testing"
)

// evalTerm decodes bytes into an 8-bit term over vars, at most d operators
// deep, appending every term it builds to pool (Boolean conditions too).
// An exhausted input reads as zero bytes, which decode to leaves.
func evalTerm(c *Context, vars []*Term, next func() byte, d int, pool *[]*Term) *Term {
	op := next()
	var t *Term
	if d == 0 || op < 64 {
		if op%3 == 0 {
			t = c.BV(8, uint64(next()))
		} else {
			t = vars[int(op)%len(vars)]
		}
		*pool = append(*pool, t)
		return t
	}
	a := evalTerm(c, vars, next, d-1, pool)
	b := evalTerm(c, vars, next, d-1, pool)
	switch op % 12 {
	case 0:
		t = c.Add(a, b)
	case 1:
		t = c.Xor(c.Sub(a, b), b)
	case 2:
		t = c.Lshr(c.Add(a, b), b)
	case 3:
		t = c.Xor(c.And(a, b), c.Or(c.Not(a), c.Neg(b)))
	case 4:
		t = c.Shl(a, b)
	case 5:
		t = c.Ashr(c.Lshr(a, b), a)
	case 6:
		cond := c.Ne(c.BoolToBV(c.Slt(a, b)), c.BoolToBV(c.BNot(c.Sle(b, a))))
		*pool = append(*pool, cond)
		t = c.Ite(cond, a, b)
	case 7:
		cond := c.BAnd(c.Eq(a, b), c.BOr(c.Ult(a, b), c.Ule(b, a)))
		*pool = append(*pool, cond)
		t = c.Ite(cond, b, a)
	case 8:
		t = c.Concat(c.Extract(a, 3, 0), c.Extract(b, 7, 4))
	case 9:
		t = c.Add(c.SExt(c.Extract(a, 5, 0), 8), c.ZExt(c.Extract(b, 6, 2), 8))
	default:
		t = c.Sub(a, c.BV(8, uint64(op)))
	}
	*pool = append(*pool, t)
	return t
}

// FuzzEvaluator checks the dense-memo Evaluator against Eval across several
// Reset epochs on one evaluator: each epoch draws an environment that may
// leave a variable unbound, binds some variables with Bind, and evaluates
// pool terms in a drawn order. Every value, and every unbound-variable
// error, must match Eval under the same bindings; a memo surviving Reset,
// or a failed evaluation leaving a wrong value behind, shows as a mismatch.
func FuzzEvaluator(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 24+8*i)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		c := NewContext()
		vars := []*Term{c.Var("x", 8), c.Var("y", 8), c.Var("z", 8)}
		var pool []*Term
		for k := 1 + next()%4; k > 0; k-- {
			evalTerm(c, vars, next, 4, &pool)
		}
		ev := NewEvaluator(MapEnv{})
		for epoch := 0; epoch < 4; epoch++ {
			env := MapEnv{}
			for _, v := range vars {
				if b := next(); b%5 != 0 {
					env[v.Name()] = uint64(b) * 0x0101
				}
			}
			ev.Reset(env)
			ref := MapEnv{}
			for k, v := range env {
				ref[k] = v
			}
			for _, v := range vars {
				if b := next(); b%4 == 0 {
					val := uint64(next()) << 4
					ev.Bind(v, val)
					ref[v.Name()] = val
				}
			}
			for k := 1 + next()%8; k > 0; k-- {
				tm := pool[int(next())%len(pool)]
				got, gerr := ev.Eval(tm)
				want, werr := Eval(tm, ref)
				if (gerr != nil) != (werr != nil) || got != want {
					t.Fatalf("epoch %d: Evaluator(%v) = %#x, %v; Eval under %v = %#x, %v", epoch, tm, got, gerr, ref, want, werr)
				}
			}
		}
	})
}

// TestEvaluatorResetAllocs pins Reset at zero allocations: it starts a new
// epoch and keeps the memo's storage.
func TestEvaluatorResetAllocs(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	sum := c.Add(x, c.BV(8, 2))
	env := MapEnv{"x": 1}
	ev := NewEvaluator(env)
	if _, err := ev.Eval(sum); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { ev.Reset(env) }); n != 0 {
		t.Fatalf("Reset allocates %v times, want 0", n)
	}
}
