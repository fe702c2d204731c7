package smt

import "fmt"

// Env supplies concrete values for variables during evaluation.
type Env interface {
	// Lookup returns the value of the named variable at the given width.
	Lookup(name string, width int) (uint64, bool)
}

// MapEnv is an Env backed by a map from variable name to value.
type MapEnv map[string]uint64

// Lookup implements Env.
func (m MapEnv) Lookup(name string, _ int) (uint64, bool) {
	v, ok := m[name]
	return v, ok
}

// Eval computes the concrete value of t under env. Bit-vector results are in
// the low Width() bits; Boolean results are 0 or 1. It returns an error if a
// variable has no binding.
//
// Eval is used by property-based tests to cross-check the bit-blaster and by
// the verification harness to confirm counterexamples by concrete replay.
func Eval(t *Term, env Env) (uint64, error) {
	cache := make(map[*Term]uint64)
	return eval(t, env, cache)
}

func eval(t *Term, env Env, cache map[*Term]uint64) (uint64, error) {
	if v, ok := cache[t]; ok {
		return v, nil
	}
	var args [3]uint64
	for i := 0; i < t.NumArgs(); i++ {
		v, err := eval(t.Arg(i), env, cache)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	v, err := apply(t, &args, env)
	if err != nil {
		return 0, err
	}
	cache[t] = v
	return v, nil
}

// apply computes t's value from its arguments' values; a variable reads env.
func apply(t *Term, args *[3]uint64, env Env) (uint64, error) {
	w := t.Width()
	var v uint64
	switch t.Kind() {
	case KConst:
		v = t.val
	case KVar:
		x, ok := env.Lookup(t.name, w)
		if !ok {
			return 0, fmt.Errorf("smt: eval: unbound variable %q", t.name)
		}
		v = x & mask(w)
	case KAdd:
		v = (args[0] + args[1]) & mask(w)
	case KSub:
		v = (args[0] - args[1]) & mask(w)
	case KNeg:
		v = (-args[0]) & mask(w)
	case KAnd:
		v = args[0] & args[1]
	case KOr:
		v = args[0] | args[1]
	case KXor:
		v = args[0] ^ args[1]
	case KNot:
		v = ^args[0] & mask(w)
	case KShl:
		if args[1] >= uint64(w) {
			v = 0
		} else {
			v = (args[0] << args[1]) & mask(w)
		}
	case KLshr:
		if args[1] >= uint64(w) {
			v = 0
		} else {
			v = args[0] >> args[1]
		}
	case KAshr:
		sh := args[1]
		if sh >= uint64(w) {
			if SignBit(args[0], w) {
				v = mask(w)
			} else {
				v = 0
			}
		} else {
			v = (SignExt(args[0], w) >> sh) & mask(w)
		}
	case KConcat:
		v = args[0]<<uint(t.Arg(1).Width()) | args[1]
	case KExtract:
		_, lo := t.ExtractBounds()
		v = (args[0] >> uint(lo)) & mask(w)
	case KZExt:
		v = args[0]
	case KSExt:
		v = SignExt(args[0], t.Arg(0).Width()) & mask(w)
	case KIte:
		if args[0] != 0 {
			v = args[1]
		} else {
			v = args[2]
		}
	case KTrue:
		v = 1
	case KFalse:
		v = 0
	case KEq:
		v = b2u(args[0] == args[1])
	case KUlt:
		v = b2u(args[0] < args[1])
	case KUle:
		v = b2u(args[0] <= args[1])
	case KSlt:
		aw := t.Arg(0).Width()
		v = b2u(int64(SignExt(args[0], aw)) < int64(SignExt(args[1], aw)))
	case KSle:
		aw := t.Arg(0).Width()
		v = b2u(int64(SignExt(args[0], aw)) <= int64(SignExt(args[1], aw)))
	case KBAnd:
		v = args[0] & args[1]
	case KBOr:
		v = args[0] | args[1]
	case KBNot:
		v = args[0] ^ 1
	default:
		return 0, fmt.Errorf("smt: eval: unsupported kind %v", t.Kind())
	}
	return v, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Evaluator evaluates many terms under one fixed environment, keeping the
// per-term value cache alive between calls. Terms along one exploration path
// share most of their DAG, so evaluating a stream of path constraints with
// an Evaluator costs each DAG node once, where repeated Eval calls would
// re-walk the shared structure every time. The environment must not change
// behind the Evaluator's back, and between Resets every term must come from
// one Context: the memo is indexed by term ID.
//
// The memo is two dense tables by term ID-1, a value and the epoch that
// wrote it; Reset starts a new epoch, so forgetting every value is a tick
// and the tables hold no pointers for the garbage collector to scan.
type Evaluator struct {
	env   Env
	val   []uint64
	stamp []uint32
	epoch uint32
}

// NewEvaluator returns an evaluator over the fixed environment env.
func NewEvaluator(env Env) *Evaluator {
	return &Evaluator{env: env, epoch: 1}
}

// Reset rebinds the evaluator to env and forgets every memoized value and
// binding. The memo keeps its storage, so a recycled evaluator does not
// allocate again.
func (e *Evaluator) Reset(env Env) {
	e.env = env
	e.epoch++
	if e.epoch == 0 {
		clear(e.stamp)
		e.epoch = 1
	}
}

// Bind fixes the variable v to val (truncated to v's width) until the next
// Reset, taking precedence over the environment. Binding a model's
// variables up front spares the evaluator an environment lookup by name.
func (e *Evaluator) Bind(v *Term, val uint64) {
	e.memo(v, val&mask(v.Width()))
}

// Eval computes the concrete value of t, memoized across calls.
func (e *Evaluator) Eval(t *Term) (uint64, error) {
	i := t.id - 1
	if int(i) < len(e.stamp) && e.stamp[i] == e.epoch {
		return e.val[i], nil
	}
	var args [3]uint64
	for j := 0; j < int(t.nargs); j++ {
		v, err := e.Eval(t.args[j])
		if err != nil {
			return 0, err
		}
		args[j] = v
	}
	v, err := apply(t, &args, e.env)
	if err != nil {
		return 0, err
	}
	e.memo(t, v)
	return v, nil
}

// memo records t's value in the current epoch, growing the tables
// geometrically to cover t.
func (e *Evaluator) memo(t *Term, v uint64) {
	i := int(t.id) - 1
	if i >= len(e.stamp) {
		n := max(2*len(e.stamp), i+1, 64)
		e.stamp = append(e.stamp, make([]uint32, n-len(e.stamp))...)
		e.val = append(e.val, make([]uint64, n-len(e.val))...)
	}
	e.stamp[i], e.val[i] = e.epoch, v
}

// EvalBool evaluates a Boolean term, memoized across calls.
func (e *Evaluator) EvalBool(t *Term) (bool, error) {
	if !t.IsBool() {
		return false, fmt.Errorf("smt: EvalBool on bit-vector term")
	}
	v, err := e.Eval(t)
	return v != 0, err
}

// EvalBool evaluates a Boolean term under env.
func EvalBool(t *Term, env Env) (bool, error) {
	if !t.IsBool() {
		return false, fmt.Errorf("smt: EvalBool on bit-vector term")
	}
	v, err := Eval(t, env)
	return v != 0, err
}
