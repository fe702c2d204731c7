package rvfi

import (
	"testing"

	"symriscv/internal/core"
	"symriscv/internal/obs"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// checkerFixture runs fn with a voter inside a single-path exploration.
func checkerFixture(t *testing.T, fn func(ctx *smt.Context, e *core.Engine, v *Checker)) {
	t.Helper()
	x := core.NewExplorer(func(e *core.Engine) error {
		fn(e.Context(), e, NewChecker(e))
		return nil
	})
	rep := x.Explore(core.Options{MaxPaths: 4})
	if rep.Stats.Paths == 0 {
		t.Fatal("fixture did not run")
	}
}

func TestVoterAgreement(t *testing.T) {
	checkerFixture(t, func(ctx *smt.Context, e *core.Engine, v *Checker) {
		val := e.MakeSymbolic("val", 32)
		ret := &Retirement{
			Valid:   true,
			Insn:    ctx.BV(32, 0x13),
			PCRData: ctx.BV(32, 0),
			PCWData: ctx.BV(32, 4),
			RdAddr:  1,
			RdWData: val,
		}
		res := Reference{
			PC:      ctx.BV(32, 0),
			NextPC:  ctx.BV(32, 4),
			Insn:    ctx.BV(32, 0x13),
			RdAddr:  1,
			RdValue: val,
		}
		if m := v.Compare(ret, res); m != nil {
			t.Errorf("agreeing step flagged: %v", m)
		}
	})
}

func TestVoterSemanticallyEqualValues(t *testing.T) {
	// Syntactically different but semantically equal rd values must pass:
	// x+x vs x<<1.
	checkerFixture(t, func(ctx *smt.Context, e *core.Engine, v *Checker) {
		x := e.MakeSymbolic("vx", 32)
		a := ctx.Add(x, x)
		b := ctx.Shl(x, ctx.BV(32, 1))
		if a == b {
			t.Fatal("x+x and x<<1 built the same term; the solver is not reached")
		}
		ret := &Retirement{
			Valid: true, Insn: ctx.BV(32, 0x13),
			PCRData: ctx.BV(32, 0), PCWData: ctx.BV(32, 4),
			RdAddr: 1, RdWData: a,
		}
		res := Reference{
			PC: ctx.BV(32, 0), NextPC: ctx.BV(32, 4), Insn: ctx.BV(32, 0x13),
			RdAddr: 1, RdValue: b,
		}
		if m := v.Compare(ret, res); m != nil {
			t.Errorf("semantically equal values flagged: %v", m)
		}
	})
}

func TestVoterKinds(t *testing.T) {
	checkerFixture(t, func(ctx *smt.Context, e *core.Engine, v *Checker) {
		val := e.MakeSymbolic("kv", 32)
		base := func() (*Retirement, Reference) {
			return &Retirement{
					Valid: true, Insn: ctx.BV(32, 0x13),
					PCRData: ctx.BV(32, 0), PCWData: ctx.BV(32, 4),
				}, Reference{
					PC: ctx.BV(32, 0), NextPC: ctx.BV(32, 4), Insn: ctx.BV(32, 0x13),
				}
		}

		// Trap mismatch.
		ret, res := base()
		ret.Trap, ret.Cause = true, 2
		if m := v.Compare(ret, res); m == nil || m.Kind != TrapMismatch {
			t.Errorf("trap mismatch: got %v", m)
		}

		// Cause mismatch.
		ret, res = base()
		ret.Trap, ret.Cause = true, 2
		res.Trap, res.Cause = true, 4
		if m := v.Compare(ret, res); m == nil || m.Kind != CauseMismatch {
			t.Errorf("cause mismatch: got %v", m)
		}

		// PC mismatch.
		ret, res = base()
		res.NextPC = ctx.BV(32, 8)
		if m := v.Compare(ret, res); m == nil || m.Kind != PCMismatch {
			t.Errorf("pc mismatch: got %v", m)
		}

		// Rd index mismatch.
		ret, res = base()
		ret.RdAddr, ret.RdWData = 1, val
		res.RdAddr, res.RdValue = 2, val
		if m := v.Compare(ret, res); m == nil || m.Kind != RdMismatch {
			t.Errorf("rd index mismatch: got %v", m)
		}

		// Rd value mismatch.
		ret, res = base()
		ret.RdAddr, ret.RdWData = 1, val
		res.RdAddr, res.RdValue = 1, ctx.Add(val, ctx.BV(32, 1))
		if m := v.Compare(ret, res); m == nil || m.Kind != RdMismatch {
			t.Errorf("rd value mismatch: got %v", m)
		}

		// Store presence mismatch.
		ret, res = base()
		ret.MemAddr = ctx.BV(32, 100)
		ret.MemWMask = uint8(rtl.StrobeWord)
		ret.MemWData = val
		if m := v.Compare(ret, res); m == nil || m.Kind != MemMismatch {
			t.Errorf("store presence mismatch: got %v", m)
		}

		// Store width mismatch.
		ret, res = base()
		ret.MemAddr, res.MemAddr = ctx.BV(32, 100), ctx.BV(32, 100)
		ret.MemWMask = uint8(rtl.StrobeHalf0)
		ret.MemWData = val
		res.MemWrite, res.MemWData, res.MemWBytes = true, val, 4
		if m := v.Compare(ret, res); m == nil || m.Kind != MemMismatch {
			t.Errorf("store width mismatch: got %v", m)
		}

		// Store data mismatch.
		ret, res = base()
		ret.MemAddr, res.MemAddr = ctx.BV(32, 100), ctx.BV(32, 100)
		ret.MemWMask = uint8(rtl.StrobeWord)
		ret.MemWData = val
		res.MemWrite, res.MemWData, res.MemWBytes = true, ctx.Xor(val, ctx.BV(32, 0x80)), 4
		if m := v.Compare(ret, res); m == nil || m.Kind != MemMismatch {
			t.Errorf("store data mismatch: got %v", m)
		}

		// Matching store passes.
		ret, res = base()
		ret.MemAddr, res.MemAddr = ctx.BV(32, 100), ctx.BV(32, 100)
		ret.MemWMask = uint8(rtl.StrobeWord)
		ret.MemWData = val
		res.MemWrite, res.MemWData, res.MemWBytes = true, val, 4
		if m := v.Compare(ret, res); m != nil {
			t.Errorf("matching store flagged: %v", m)
		}
	})
}

func TestVoterWitnessEvaluation(t *testing.T) {
	checkerFixture(t, func(ctx *smt.Context, e *core.Engine, v *Checker) {
		val := e.MakeSymbolic("wv", 32)
		ret := &Retirement{
			Valid: true, Insn: ctx.BV(32, 0x00108093), // addi x1, x1, 1
			PCRData: ctx.BV(32, 0), PCWData: ctx.BV(32, 4),
			RdAddr: 1, RdWData: ctx.And(val, ctx.BV(32, 0xfffffffe)),
		}
		res := Reference{
			PC: ctx.BV(32, 0), NextPC: ctx.BV(32, 4), Insn: ret.Insn,
			RdAddr: 1, RdValue: val,
		}
		m := v.Compare(ret, res)
		if m == nil || m.Kind != RdMismatch {
			t.Fatalf("expected rd mismatch, got %v", m)
		}
		// The witness must actually discriminate: low bit of val set.
		if m.Env["wv"]&1 != 1 {
			t.Errorf("witness does not demonstrate the difference: %#x", m.Env["wv"])
		}
		if m.Disasm != "addi x1, x1, 1" {
			t.Errorf("disasm of witness instruction: %q", m.Disasm)
		}
		if m.RTLRd == m.ISSRd {
			t.Error("concrete replay values should differ")
		}
	})
}

// TestCompareCounters: each field comparison Compare reaches is counted
// once, as settled by pointer equality or as sent to FindWitness, so the
// two counters of a field sum to the comparisons of it that were reached.
func TestCompareCounters(t *testing.T) {
	rec := obs.New(obs.Options{})
	reached := map[string]uint64{}
	x := core.NewExplorer(func(e *core.Engine) error {
		ctx, v := e.Context(), NewChecker(e)
		val := e.MakeSymbolic("cv", 32)
		addr := ctx.BV(32, 100)
		compare := func(ret *Retirement, ref Reference, fields ...string) *Mismatch {
			for _, f := range fields {
				reached[f]++
			}
			return v.Compare(ret, ref)
		}
		base := func() (*Retirement, Reference) {
			return &Retirement{Insn: ctx.BV(32, 0x13), PCRData: ctx.BV(32, 0), PCWData: ctx.BV(32, 4)},
				Reference{PC: ctx.BV(32, 0), NextPC: ctx.BV(32, 4), Insn: ctx.BV(32, 0x13)}
		}

		// Every field pointer-equal: all five reached.
		ret, ref := base()
		ret.RdAddr, ret.RdWData, ref.RdAddr, ref.RdValue = 1, val, 1, val
		ret.MemAddr, ret.MemWMask, ret.MemWData = addr, uint8(rtl.StrobeWord), val
		ref.MemAddr, ref.MemWrite, ref.MemWBytes, ref.MemWData = addr, true, 4, val
		if m := compare(ret, ref, "pc", "next_pc", "rd", "mem_addr", "mem_data"); m != nil {
			t.Errorf("agreeing retirement flagged: %v", m)
		}
		// A distinct but equal rd value goes to the solver; no rd write and
		// no store reach neither rd nor memory.
		ret, ref = base()
		ret.RdAddr, ret.RdWData = 1, ctx.Add(val, val)
		ref.RdAddr, ref.RdValue = 1, ctx.Shl(val, ctx.BV(32, 1))
		if m := compare(ret, ref, "pc", "next_pc", "rd"); m != nil {
			t.Errorf("equal rd values flagged: %v", m)
		}
		ret, ref = base()
		if m := compare(ret, ref, "pc", "next_pc"); m != nil {
			t.Errorf("agreeing retirement flagged: %v", m)
		}
		// A PC difference stops the comparison at the first field.
		ret, ref = base()
		ret.PCRData = val
		if m := compare(ret, ref, "pc"); m == nil || m.Kind != PCMismatch {
			t.Errorf("pc difference: got %v", m)
		}
		return nil
	})
	x.Explore(core.Options{MaxPaths: 1, Obs: rec})
	rec.Close()
	got := rec.Snapshot().Counters
	for _, f := range []string{"pc", "next_pc", "rd", "mem_addr", "mem_data"} {
		if sum := got[CtrEqualPrefix+f] + got[CtrQueryPrefix+f]; sum != reached[f] {
			t.Errorf("%s: %d settled by pointer equality + %d sent to the solver, want %d reached",
				f, got[CtrEqualPrefix+f], got[CtrQueryPrefix+f], reached[f])
		}
	}
	if got[CtrQueryPrefix+"rd"] != 1 || got[CtrQueryPrefix+"pc"] != 1 || got[CtrQueryPrefix+"next_pc"] != 0 {
		t.Errorf("solver-bound comparisons %v, want one rd and one pc", got)
	}
}
