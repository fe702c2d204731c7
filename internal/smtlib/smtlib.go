// Package smtlib implements a small SMT-LIB v2 front-end for the QF_BV
// solver: declarations, assertions, check-sat and model queries over the
// bit-vector operators the engine uses. It powers the bvsolve command and
// doubles as an end-to-end exerciser of the term/bit-blast/SAT stack.
package smtlib

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// sexp is either an atom (Atom != "") or a list.
type sexp struct {
	Atom string
	List []*sexp
}

func (s *sexp) isList() bool { return s.Atom == "" }

// tokenize splits SMT-LIB input into parens and atoms, dropping ; comments.
func tokenize(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		default:
			j := i
			for j < len(src) && !strings.ContainsRune("() \t\n\r;", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks
}

func parseAll(src string) ([]*sexp, error) {
	toks := tokenize(src)
	var out []*sexp
	pos := 0
	for pos < len(toks) {
		e, next, err := parseOne(toks, pos)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		pos = next
	}
	return out, nil
}

func parseOne(toks []string, pos int) (*sexp, int, error) {
	if pos >= len(toks) {
		return nil, pos, fmt.Errorf("smtlib: unexpected end of input")
	}
	switch toks[pos] {
	case "(":
		e := &sexp{}
		pos++
		for pos < len(toks) && toks[pos] != ")" {
			child, next, err := parseOne(toks, pos)
			if err != nil {
				return nil, pos, err
			}
			e.List = append(e.List, child)
			pos = next
		}
		if pos >= len(toks) {
			return nil, pos, fmt.Errorf("smtlib: missing closing paren")
		}
		return e, pos + 1, nil
	case ")":
		return nil, pos, fmt.Errorf("smtlib: unexpected )")
	default:
		return &sexp{Atom: toks[pos]}, pos + 1, nil
	}
}

// Interp executes SMT-LIB commands against one solver instance.
type Interp struct {
	ctx  *smt.Context
	sol  *solver.Solver
	vars map[string]*smt.Term
	// declared lists the var names in declaration order, so get-model never
	// depends on map iteration order.
	declared []string
	lets     []map[string]*smt.Term // let-binding scopes, innermost last
	out      io.Writer

	// Assertion stack for push/pop. The underlying solver's asserts are
	// permanent, so pop rebuilds a fresh solver from the surviving levels.
	levels [][]*smt.Term

	lastResult solver.Result
	checked    bool
}

// NewInterp returns an interpreter writing answers to out.
func NewInterp(out io.Writer) *Interp {
	ctx := smt.NewContext()
	return &Interp{
		ctx:    ctx,
		sol:    solver.New(ctx),
		vars:   make(map[string]*smt.Term),
		out:    out,
		levels: [][]*smt.Term{nil},
	}
}

// Run parses and executes a script. Execution stops at the first error or at
// (exit). A term that breaks the builders' sort discipline (a width out of
// range, mismatched operand widths) is reported as the *smt.BuildError the
// builder panicked with; any other panic is a bug and propagates.
func (in *Interp) Run(src string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(*smt.BuildError)
			if !ok {
				panic(r)
			}
			in.lets = nil // a panic inside a let body skips its pop
			err = be
		}
	}()
	cmds, err := parseAll(src)
	if err != nil {
		return err
	}
	for _, cmd := range cmds {
		stop, err := in.exec(cmd)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

func (in *Interp) exec(cmd *sexp) (stop bool, err error) {
	if !cmd.isList() || len(cmd.List) == 0 || cmd.List[0].isList() {
		return false, fmt.Errorf("smtlib: malformed command")
	}
	head := cmd.List[0].Atom
	args := cmd.List[1:]
	switch head {
	case "set-logic", "set-option", "set-info":
		return false, nil
	case "exit":
		return true, nil

	case "declare-const":
		if len(args) != 2 {
			return false, fmt.Errorf("smtlib: declare-const wants 2 arguments")
		}
		return false, in.declare(args[0], args[1])

	case "declare-fun":
		if len(args) != 3 || !args[1].isList() || len(args[1].List) != 0 {
			return false, fmt.Errorf("smtlib: only nullary declare-fun is supported")
		}
		return false, in.declare(args[0], args[2])

	case "assert":
		if len(args) != 1 {
			return false, fmt.Errorf("smtlib: assert wants 1 argument")
		}
		t, err := in.term(args[0])
		if err != nil {
			return false, err
		}
		if !t.IsBool() {
			return false, fmt.Errorf("smtlib: assert needs a Boolean term")
		}
		in.sol.Assert(t)
		top := len(in.levels) - 1
		in.levels[top] = append(in.levels[top], t)
		return false, nil

	case "push":
		in.levels = append(in.levels, nil)
		return false, nil

	case "pop":
		if len(in.levels) == 1 {
			return false, fmt.Errorf("smtlib: pop without matching push")
		}
		in.levels = in.levels[:len(in.levels)-1]
		// Rebuild the solver with the surviving assertions (terms are
		// interned in the shared context, so re-encoding is cheap).
		in.sol = solver.New(in.ctx)
		for _, level := range in.levels {
			for _, t := range level {
				in.sol.Assert(t)
			}
		}
		in.checked = false
		return false, nil

	case "check-sat":
		in.lastResult = in.sol.Check()
		in.checked = true
		fmt.Fprintln(in.out, in.lastResult)
		return false, nil

	case "get-model":
		if !in.checked || in.lastResult != solver.Sat {
			return false, fmt.Errorf("smtlib: get-model without a sat answer")
		}
		names := append([]string(nil), in.declared...)
		sort.Strings(names)
		fmt.Fprintln(in.out, "(")
		for _, n := range names {
			v := in.vars[n]
			val := in.sol.ModelValue(v)
			if v.IsBool() {
				fmt.Fprintf(in.out, "  (define-fun %s () Bool %v)\n", n, val != 0)
			} else {
				fmt.Fprintf(in.out, "  (define-fun %s () (_ BitVec %d) #x%0*x)\n",
					n, v.Width(), (v.Width()+3)/4, val)
			}
		}
		fmt.Fprintln(in.out, ")")
		return false, nil

	case "get-value":
		if !in.checked || in.lastResult != solver.Sat {
			return false, fmt.Errorf("smtlib: get-value without a sat answer")
		}
		if len(args) != 1 || !args[0].isList() {
			return false, fmt.Errorf("smtlib: get-value wants a term list")
		}
		fmt.Fprint(in.out, "(")
		for i, te := range args[0].List {
			t, err := in.term(te)
			if err != nil {
				return false, err
			}
			if i > 0 {
				fmt.Fprint(in.out, " ")
			}
			val := in.sol.ModelValue(t)
			if t.IsBool() {
				fmt.Fprintf(in.out, "(%s %v)", render(te), val != 0)
			} else {
				fmt.Fprintf(in.out, "(%s #x%0*x)", render(te), (t.Width()+3)/4, val)
			}
		}
		fmt.Fprintln(in.out, ")")
		return false, nil
	}
	return false, fmt.Errorf("smtlib: unsupported command %q", head)
}

func (in *Interp) declare(name, sortExp *sexp) error {
	if name.isList() {
		return fmt.Errorf("smtlib: bad declaration name")
	}
	if _, exists := in.vars[name.Atom]; exists {
		return fmt.Errorf("smtlib: %q already declared", name.Atom)
	}
	w, err := parseSort(sortExp)
	if err != nil {
		return err
	}
	if w == 0 {
		// Model Booleans as 1-bit vectors compared against 1.
		v := in.ctx.Var("bool!"+name.Atom, 1)
		in.vars[name.Atom] = in.ctx.Eq(v, in.ctx.BV(1, 1))
	} else {
		in.vars[name.Atom] = in.ctx.Var(name.Atom, w)
	}
	in.declared = append(in.declared, name.Atom)
	return nil
}

// parseSort returns the width of a (_ BitVec n) sort, or 0 for Bool.
func parseSort(e *sexp) (int, error) {
	if !e.isList() {
		if e.Atom == "Bool" {
			return 0, nil
		}
		return 0, fmt.Errorf("smtlib: unsupported sort %q", e.Atom)
	}
	if len(e.List) == 3 && e.List[0].Atom == "_" && e.List[1].Atom == "BitVec" {
		w, err := strconv.Atoi(e.List[2].Atom)
		if err != nil || w < 1 || w > smt.MaxWidth {
			return 0, fmt.Errorf("smtlib: bad bit-vector width")
		}
		return w, nil
	}
	return 0, fmt.Errorf("smtlib: unsupported sort")
}

func render(e *sexp) string {
	if !e.isList() {
		return e.Atom
	}
	parts := make([]string, len(e.List))
	for i, c := range e.List {
		parts[i] = render(c)
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// term builds the smt term for an expression.
func (in *Interp) term(e *sexp) (*smt.Term, error) {
	ctx := in.ctx
	if !e.isList() {
		a := e.Atom
		switch {
		case a == "true":
			return ctx.True(), nil
		case a == "false":
			return ctx.False(), nil
		case strings.HasPrefix(a, "#x"):
			v, err := strconv.ParseUint(a[2:], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("smtlib: bad hex literal %q", a)
			}
			return ctx.BV(4*len(a[2:]), v), nil
		case strings.HasPrefix(a, "#b"):
			v, err := strconv.ParseUint(a[2:], 2, 64)
			if err != nil {
				return nil, fmt.Errorf("smtlib: bad binary literal %q", a)
			}
			return ctx.BV(len(a[2:]), v), nil
		default:
			for i := len(in.lets) - 1; i >= 0; i-- {
				if t, ok := in.lets[i][a]; ok {
					return t, nil
				}
			}
			if t, ok := in.vars[a]; ok {
				return t, nil
			}
			return nil, fmt.Errorf("smtlib: unknown symbol %q", a)
		}
	}

	if len(e.List) == 0 {
		return nil, fmt.Errorf("smtlib: empty expression")
	}

	// (let ((name expr) ...) body): bindings evaluate in the outer scope and
	// are visible only in the body.
	if e.List[0].Atom == "let" {
		if len(e.List) != 3 || !e.List[1].isList() {
			return nil, fmt.Errorf("smtlib: let wants a binding list and a body")
		}
		scope := make(map[string]*smt.Term)
		for _, b := range e.List[1].List {
			if !b.isList() || len(b.List) != 2 || b.List[0].isList() {
				return nil, fmt.Errorf("smtlib: malformed let binding")
			}
			t, err := in.term(b.List[1])
			if err != nil {
				return nil, err
			}
			scope[b.List[0].Atom] = t
		}
		in.lets = append(in.lets, scope)
		body, err := in.term(e.List[2])
		in.lets = in.lets[:len(in.lets)-1]
		return body, err
	}

	// (_ bvN w) literal.
	if e.List[0].Atom == "_" && len(e.List) == 3 && strings.HasPrefix(e.List[1].Atom, "bv") {
		v, err1 := strconv.ParseUint(e.List[1].Atom[2:], 10, 64)
		w, err2 := strconv.Atoi(e.List[2].Atom)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("smtlib: bad (_ bvN w) literal")
		}
		return ctx.BV(w, v), nil
	}

	// Indexed operators: ((_ extract hi lo) x) etc.
	if e.List[0].isList() && len(e.List[0].List) > 0 && e.List[0].List[0].Atom == "_" {
		idx := e.List[0].List
		if len(e.List) != 2 {
			return nil, fmt.Errorf("smtlib: indexed operator wants 1 argument")
		}
		x, err := in.term(e.List[1])
		if err != nil {
			return nil, err
		}
		if len(idx) < 2 {
			return nil, fmt.Errorf("smtlib: indexed operator without a name")
		}
		switch idx[1].Atom {
		case "extract":
			n, err := indices(idx, 2)
			if err != nil {
				return nil, err
			}
			return ctx.Extract(x, n[0], n[1]), nil
		case "zero_extend":
			n, err := indices(idx, 1)
			if err != nil {
				return nil, err
			}
			return ctx.ZExt(x, x.Width()+n[0]), nil
		case "sign_extend":
			n, err := indices(idx, 1)
			if err != nil {
				return nil, err
			}
			return ctx.SExt(x, x.Width()+n[0]), nil
		}
		return nil, fmt.Errorf("smtlib: unsupported indexed operator %q", idx[1].Atom)
	}

	op := e.List[0].Atom
	args := make([]*smt.Term, len(e.List)-1)
	for i, a := range e.List[1:] {
		t, err := in.term(a)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}

	bin := func(f func(a, b *smt.Term) *smt.Term) (*smt.Term, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("smtlib: %s wants >= 2 arguments", op)
		}
		t := args[0]
		for _, a := range args[1:] {
			t = f(t, a)
		}
		return t, nil
	}
	un := func(f func(a *smt.Term) *smt.Term) (*smt.Term, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("smtlib: %s wants 1 argument", op)
		}
		return f(args[0]), nil
	}

	switch op {
	case "bvadd":
		return bin(ctx.Add)
	case "bvsub":
		return bin(ctx.Sub)
	case "bvmul":
		return bin(ctx.Mul)
	case "bvneg":
		return un(ctx.Neg)
	case "bvudiv":
		return bin2(args, op, ctx.UDiv)
	case "bvurem":
		return bin2(args, op, ctx.URem)
	case "bvand":
		return bin(ctx.And)
	case "bvor":
		return bin(ctx.Or)
	case "bvxor":
		return bin(ctx.Xor)
	case "bvnot":
		return un(ctx.Not)
	case "bvshl":
		return bin(ctx.Shl)
	case "bvlshr":
		return bin(ctx.Lshr)
	case "bvashr":
		return bin(ctx.Ashr)
	case "concat":
		return bin(ctx.Concat)
	case "=":
		if len(args) != 2 {
			return nil, fmt.Errorf("smtlib: = wants 2 arguments")
		}
		if args[0].IsBool() && args[1].IsBool() {
			return ctx.Iff(args[0], args[1]), nil
		}
		return ctx.Eq(args[0], args[1]), nil
	case "distinct":
		if len(args) != 2 {
			return nil, fmt.Errorf("smtlib: distinct wants 2 arguments")
		}
		return ctx.Ne(args[0], args[1]), nil
	case "bvult":
		return bin2(args, op, ctx.Ult)
	case "bvule":
		return bin2(args, op, ctx.Ule)
	case "bvugt":
		return bin2(args, op, ctx.Ugt)
	case "bvuge":
		return bin2(args, op, ctx.Uge)
	case "bvslt":
		return bin2(args, op, ctx.Slt)
	case "bvsle":
		return bin2(args, op, ctx.Sle)
	case "bvsgt":
		return bin2(args, op, ctx.Sgt)
	case "bvsge":
		return bin2(args, op, ctx.Sge)
	case "and":
		return bin(ctx.BAnd)
	case "or":
		return bin(ctx.BOr)
	case "xor":
		return bin(ctx.BXor)
	case "not":
		return un(ctx.BNot)
	case "=>":
		return bin2(args, op, ctx.Implies)
	case "ite":
		if len(args) != 3 {
			return nil, fmt.Errorf("smtlib: ite wants 3 arguments")
		}
		return ctx.Ite(args[0], args[1], args[2]), nil
	}
	return nil, fmt.Errorf("smtlib: unsupported operator %q", op)
}

// indices parses the want numeric indices of an indexed operator
// (_ name i1 ... iwant).
func indices(idx []*sexp, want int) ([]int, error) {
	if len(idx) != want+2 {
		return nil, fmt.Errorf("smtlib: %s wants %d indices", idx[1].Atom, want)
	}
	n := make([]int, want)
	for i, e := range idx[2:] {
		v, err := strconv.Atoi(e.Atom)
		if err != nil {
			return nil, fmt.Errorf("smtlib: bad %s index %q", idx[1].Atom, render(e))
		}
		n[i] = v
	}
	return n, nil
}

func bin2(args []*smt.Term, op string, f func(a, b *smt.Term) *smt.Term) (*smt.Term, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("smtlib: %s wants 2 arguments", op)
	}
	return f(args[0], args[1]), nil
}
