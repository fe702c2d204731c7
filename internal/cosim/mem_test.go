package cosim

import (
	"math/rand"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// newIMem, newInit and newDMem build empty memories for one path of e.
func newIMem(e *core.Engine, filter InstrFilter) *SymbolicIMem {
	m := new(SymbolicIMem)
	m.reset(e, filter, nil)
	return m
}

func newInit(e *core.Engine) *SharedInit {
	s := new(SharedInit)
	s.reset(e, nil, nil)
	return s
}

func newDMem(ctx *smt.Context, init *SharedInit) *SymbolicDMem {
	m := new(SymbolicDMem)
	m.reset(ctx, init)
	return m
}

// withEngine runs fn inside a single-path exploration.
func withEngine(t *testing.T, fn func(e *core.Engine)) {
	t.Helper()
	x := core.NewExplorer(func(e *core.Engine) error {
		fn(e)
		return nil
	})
	rep := x.Explore(core.Options{})
	if rep.Stats.Paths != 1 || rep.Stats.Completed != 1 {
		t.Fatalf("expected one clean path: %v", rep.Stats)
	}
}

func TestIMemCachesAndShares(t *testing.T) {
	withEngine(t, func(e *core.Engine) {
		m := newIMem(e, nil)
		w1 := m.Fetch(0x100)
		w2 := m.Fetch(0x100)
		if w1 != w2 {
			t.Error("same address must return the identical cached word")
		}
		if m.Fetch(0x104) == w1 {
			t.Error("different addresses must generate different words")
		}
		if w1.Kind() != smt.KVar || w1.Width() != 32 {
			t.Errorf("instruction word should be a 32-bit symbolic variable, got %v", w1)
		}
	})
}

func TestIMemFilterApplies(t *testing.T) {
	// With a filter forcing opcode==OP, a generated word can never satisfy
	// opcode==LOAD under the path constraints.
	x := core.NewExplorer(func(e *core.Engine) error {
		ctx := e.Context()
		m := newIMem(e, OnlyOpcode(riscv.OpReg))
		w := m.Fetch(0)
		if _, ok := e.FindWitness(ctx.Eq(ctx.And(w, ctx.BV(32, 0x7f)), ctx.BV(32, riscv.OpLoad))); ok {
			t.Error("filter did not constrain the generated word")
		}
		return nil
	})
	x.Explore(core.Options{})
}

func TestDMemSharedInitSeparateOverlay(t *testing.T) {
	withEngine(t, func(e *core.Engine) {
		ctx := e.Context()
		pool := newInit(e)
		a := newDMem(ctx, pool)
		b := newDMem(ctx, pool)

		if a.LoadByte(50) != b.LoadByte(50) {
			t.Error("initial bytes must be shared between the two sides")
		}
		a.StoreByte(50, ctx.BV(8, 0xaa))
		if a.LoadByte(50) == b.LoadByte(50) {
			t.Error("stores must stay private to one side")
		}
		if got := a.LoadByte(50); !got.IsConst() || got.ConstVal() != 0xaa {
			t.Errorf("overlay readback: %v", got)
		}
		if len(a.writes) != 1 || len(b.writes) != 0 {
			t.Error("write log wrong")
		}
	})
}

func TestDMemWidthComposition(t *testing.T) {
	withEngine(t, func(e *core.Engine) {
		ctx := e.Context()
		pool := newInit(e)
		m := newDMem(ctx, pool)
		m.StoreWord(100, ctx.BV(32, 0xdeadbeef))
		if v := m.LoadWord(100); v.ConstVal() != 0xdeadbeef {
			t.Errorf("word readback %#x", v.ConstVal())
		}
		if v := m.LoadHalf(102); v.ConstVal() != 0xdead {
			t.Errorf("half readback %#x", v.ConstVal())
		}
		if v := m.LoadByte(101); v.ConstVal() != 0xbe {
			t.Errorf("byte readback %#x", v.ConstVal())
		}
		m.StoreHalf(102, ctx.BV(16, 0x1234))
		if v := m.LoadWord(100); v.ConstVal() != 0x1234beef {
			t.Errorf("after half store: %#x", v.ConstVal())
		}
	})
}

func TestServeDBus(t *testing.T) {
	withEngine(t, func(e *core.Engine) {
		ctx := e.Context()
		pool := newInit(e)
		m := newDMem(ctx, pool)

		// Write half lane 1 (bytes 2,3) then read the word back.
		resp := m.ServeDBus(rtl.DBusRequest{
			Enable:    true,
			Write:     true,
			Address:   ctx.BV(32, 100),
			WrStrobe:  rtl.StrobeHalf1,
			WriteData: ctx.BV(32, 0xabcd0000),
		})
		if !resp.DataReady {
			t.Fatal("write not acknowledged")
		}
		resp = m.ServeDBus(rtl.DBusRequest{
			Enable:   true,
			Address:  ctx.BV(32, 100),
			WrStrobe: rtl.StrobeWord,
		})
		if !resp.DataReady {
			t.Fatal("read not acknowledged")
		}
		got := ctx.Extract(resp.ReadData, 31, 16)
		if !got.IsConst() || got.ConstVal() != 0xabcd {
			t.Errorf("written lanes read back %v", got)
		}
		// Idle request does nothing.
		if r := m.ServeDBus(rtl.DBusRequest{}); r.DataReady {
			t.Error("idle bus must not respond")
		}
	})
}

// TestRandomInstructionDifferential is the central property-based test: for
// randomly drawn *valid* RV32I instruction words, the matched RTL core and
// ISS — with fully symbolic registers and memory — must never produce a
// satisfiable mismatch.
func TestRandomInstructionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2023))
	tried := 0
	for tried < 60 {
		w := rng.Uint32()
		in := riscv.Decode(w)
		if in.Mn == riscv.InsInvalid || in.Mn.IsCSR() ||
			in.Mn == riscv.InsECALL || in.Mn == riscv.InsEBREAK ||
			in.Mn == riscv.InsWFI || in.Mn == riscv.InsMRET {
			continue
		}
		tried++
		cfg := matchedConfig()
		cfg.Filter = Filters(cfg.Filter, OnlyMasked(0xffffffff, w))
		x := core.NewExplorer(RunFunc(cfg))
		rep := x.Explore(core.Options{MaxTime: 30 * time.Second})
		if len(rep.Findings) != 0 {
			t.Fatalf("differential mismatch for %s (%#08x): %v",
				riscv.Disasm(w), w, rep.Findings[0].Err)
		}
		if rep.Stats.Completed == 0 {
			t.Fatalf("%s: no completed paths", riscv.Disasm(w))
		}
	}
}

// TestRandomInstructionDifferentialLimit2 extends the differential property
// to two-instruction traces on a per-class basis.
func TestRandomInstructionDifferentialLimit2(t *testing.T) {
	if testing.Short() {
		t.Skip("slow differential sweep")
	}
	classes := []uint32{riscv.OpImm, riscv.OpReg, riscv.OpBranch, riscv.OpLoad, riscv.OpStore, riscv.OpJAL}
	for _, opc := range classes {
		cfg := matchedConfig()
		cfg.Filter = Filters(cfg.Filter, OnlyOpcode(opc))
		cfg.InstrLimit = 2
		x := core.NewExplorer(RunFunc(cfg))
		rep := x.Explore(core.Options{MaxTime: 30 * time.Second, MaxPaths: 400})
		if len(rep.Findings) != 0 {
			t.Fatalf("opcode %#x: mismatch at limit 2: %v", opc, rep.Findings[0].Err)
		}
	}
}
