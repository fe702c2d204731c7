// Package decodecheck statically verifies a DUT's mask/match decode table
// (microrv32 or pipecore) against the independent internal/riscv reference
// decoder, before
// any symbolic run: every fault hunt (Table II) forks one exploration path
// per decode-table row, so a table that overlaps where semantics differ or
// deviates from the RV32 spec makes the hunt chase decode artefacts
// instead of the injected faults E0–E9.
//
// Three properties are checked per configuration (fault set):
//
//   - well-formedness: every row's match bits lie inside its mask;
//   - non-overlap: no instruction word can match two rows that decode to
//     different micro-ops (reported with a concrete 32-bit counterexample,
//     so the decode walk's first-match order is irrelevant);
//   - completeness: over a structured sweep of the encoding space plus an
//     encoder-generated catalogue, the table agrees with riscv.Decode.
//     Disagreements caused by an *active* decode fault (E0–E2 widen the
//     shift-immediate masks) are reported as intentional deviations —
//     visible in the report, not silently passed — while any other
//     disagreement is a violation.
package decodecheck

import (
	"fmt"
	"strings"

	"symriscv/internal/faults"
	"symriscv/internal/microrv32"
	"symriscv/internal/pipecore"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
)

// CoreKind selects which DUT's decode table a Config verifies.
type CoreKind string

// Supported cores. The zero value selects microrv32 for compatibility
// with pre-existing call sites.
const (
	CoreMicroRV32 CoreKind = "microrv32"
	CorePipecore  CoreKind = "pipecore"
)

// Config selects the decode-table build to verify.
type Config struct {
	Core   CoreKind // "" means CoreMicroRV32
	Faults faults.Set
}

// core returns the effective core selector, defaulting to microrv32.
func (c Config) core() CoreKind {
	if c.Core == "" {
		return CoreMicroRV32
	}
	return c.Core
}

func (c Config) String() string {
	return fmt.Sprintf("%s rv32i faults=%s", c.core(), c.Faults)
}

// entriesFor builds the decode table of the configured core.
func entriesFor(cfg Config) []rtl.Row {
	if cfg.core() == CorePipecore {
		return pipecore.DecodeTable(cfg.Faults)
	}
	return microrv32.DecodeTable(cfg.Faults)
}

// Overlap is a pair of rows that both match some instruction word.
type Overlap struct {
	I, J int // row indices in walk order
	A, B rtl.Row
	Word uint32 // counterexample word matching both rows
}

func (o Overlap) String() string {
	return fmt.Sprintf("rows %d (%s mask=%#08x match=%#08x) and %d (%s mask=%#08x match=%#08x) overlap: %#08x (%s) matches both",
		o.I, o.A.Op, o.A.Mask, o.A.Match, o.J, o.B.Op, o.B.Mask, o.B.Match, o.Word, riscv.Disasm(o.Word))
}

// Gap is a word on which the table disagrees with the reference decoder
// for a reason no active fault explains.
type Gap struct {
	Word uint32
	Want string // reference decode ("illegal" when the spec rejects it)
	Got  string // table decode
}

func (g Gap) String() string {
	return fmt.Sprintf("word %#08x: table decodes %q, reference decodes %q (%s)",
		g.Word, g.Got, g.Want, riscv.Disasm(g.Word))
}

// Deviation is a word the table accepts differently from the spec because
// of a decode fault. Intentional is true when that fault is active in the
// checked configuration; an inactive attribution is a verifier-internal
// inconsistency and counts as a violation.
type Deviation struct {
	Fault       faults.Fault
	Word        uint32
	Want        string // spec decode
	Got         string // table decode under the fault
	Intentional bool
}

func (d Deviation) String() string {
	tag := "INTENTIONAL"
	if !d.Intentional {
		tag = "UNEXPLAINED"
	}
	return fmt.Sprintf("%s deviation (%s): word %#08x decodes %q instead of %q",
		tag, d.Fault, d.Word, d.Got, d.Want)
}

// Report is the verification result for one configuration.
type Report struct {
	Config    Config
	Rows      int
	Checked   int   // words cross-checked against the reference decoder
	Malformed []int // rows whose match bits fall outside their mask
	Overlaps  []Overlap
	Gaps      []Gap
	Deviation []Deviation
}

// OK reports whether the table is well-formed, overlap-free, complete and
// has only intentional (fault-explained) deviations.
func (r *Report) OK() bool {
	if len(r.Malformed) > 0 || len(r.Overlaps) > 0 || len(r.Gaps) > 0 {
		return false
	}
	for _, d := range r.Deviation {
		if !d.Intentional {
			return false
		}
	}
	return true
}

// Format renders the report.
func (r *Report) Format() string {
	var b strings.Builder
	verdict := "OK"
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "decode-table check [%s]: %s (%d rows, %d words cross-checked)\n",
		r.Config, verdict, r.Rows, r.Checked)
	for _, i := range r.Malformed {
		fmt.Fprintf(&b, "  malformed: row %d has match bits outside its mask\n", i)
	}
	for _, o := range r.Overlaps {
		fmt.Fprintf(&b, "  overlap: %s\n", o)
	}
	for _, g := range r.Gaps {
		fmt.Fprintf(&b, "  gap: %s\n", g)
	}
	for _, d := range r.Deviation {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// Check verifies the decode table built for cfg.
func Check(cfg Config) *Report {
	return CheckEntries(entriesFor(cfg), cfg)
}

// FindOverlaps reports every pair of rows that both match some word: rows
// A and B overlap iff their match bits agree on the intersection of their
// masks; the union of the match bits is then a concrete witness (valid
// given well-formedness). Exposed for dutlint, which cross-checks its
// SAT-probed decode-arm reachability against this purely bitwise answer.
func FindOverlaps(entries []rtl.Row) []Overlap {
	var overlaps []Overlap
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			a, b := entries[i], entries[j]
			if (a.Match^b.Match)&(a.Mask&b.Mask) != 0 {
				continue
			}
			overlaps = append(overlaps, Overlap{
				I: i, J: j, A: a, B: b, Word: a.Match | b.Match,
			})
		}
	}
	return overlaps
}

// CheckEntries verifies an explicit entry list (exposed so tests can
// inject deliberately broken rows).
func CheckEntries(entries []rtl.Row, cfg Config) *Report {
	rep := &Report{Config: cfg, Rows: len(entries)}

	for i, e := range entries {
		if e.Match&^e.Mask != 0 {
			rep.Malformed = append(rep.Malformed, i)
		}
	}

	rep.Overlaps = FindOverlaps(entries)

	// Completeness/correctness sweep against the reference decoder.
	clean := entriesFor(Config{Core: cfg.Core, Faults: faults.None})
	for _, w := range sweepWords() {
		rep.Checked++
		want := referenceDecode(w, cfg)
		got := tableDecode(entries, w)
		if got == want {
			continue
		}
		// The clean table agreeing with the spec means the difference is
		// fault-induced; attribute it to the single active fault whose
		// lone injection reproduces it.
		if tableDecode(clean, w) == want {
			if f, ok := attributeFault(cfg, w, got); ok {
				rep.Deviation = append(rep.Deviation, Deviation{
					Fault: f, Word: w, Want: want, Got: got,
					Intentional: cfg.Faults.Has(f),
				})
				continue
			}
		}
		rep.Gaps = append(rep.Gaps, Gap{Word: w, Want: want, Got: got})
	}
	return rep
}

// tableDecode walks the entries in order, as the core's decode stage does.
func tableDecode(entries []rtl.Row, w uint32) string {
	for _, e := range entries {
		if w&e.Mask == e.Match {
			return e.Op.String()
		}
	}
	return "illegal"
}

// referenceDecode is the spec verdict: the independent riscv decoder,
// restricted to the core's implemented instruction subset (pipecore raises illegal-instruction for Zicsr and
// MRET by design — see the pipecore package comment — so the reference
// must agree there, or every CSR word would be reported as a gap).
func referenceDecode(w uint32, cfg Config) string {
	in := riscv.Decode(w)
	mn := in.Mn.String()
	if cfg.core() == CorePipecore {
		switch mn {
		case "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci", "mret":
			return "illegal"
		}
	}
	if mn == "" || in.Mn == 0 {
		return "illegal"
	}
	return mn
}

// attributeFault finds the active fault whose lone injection makes the
// table decode w to got.
func attributeFault(cfg Config, w uint32, got string) (faults.Fault, bool) {
	for _, f := range faults.All() {
		if !cfg.Faults.Has(f) {
			continue
		}
		only := entriesFor(Config{Core: cfg.Core, Faults: faults.Only(f)})
		if tableDecode(only, w) == got {
			return f, true
		}
	}
	return 0, false
}

// sweepWords enumerates the cross-check corpus: a structured sweep of
// opcode × funct3 × funct7 with zero register fields, the SYSTEM funct12
// space, and an encoder-generated catalogue with nonzero operands and
// boundary immediates.
func sweepWords() []uint32 {
	var words []uint32
	// funct7 values: the two defined ones (0x00, 0x20), their bit-25
	// widenings that E0–E2 accept (0x01/0x21; 0x01 is also RV32M's
	// selector, illegal here), and three garbage patterns.
	f7s := []uint32{0x00, 0x01, 0x02, 0x20, 0x21, 0x40, 0x7f}
	for opc := uint32(0); opc < 128; opc++ {
		for f3 := uint32(0); f3 < 8; f3++ {
			for _, f7 := range f7s {
				words = append(words, f7<<25|f3<<12|opc)
			}
		}
	}
	// SYSTEM funct12 space: the four defined values, near misses, and a
	// non-zero rd/rs1 variant of each (the spec requires rd=rs1=0).
	f12s := []uint32{riscv.F12ECALL, riscv.F12EBREAK, riscv.F12WFI, riscv.F12MRET, 0x002, 0x104, 0x303}
	for _, f12 := range f12s {
		base := f12<<20 | riscv.OpSystem
		words = append(words, base, base|1<<7, base|1<<15)
	}
	words = append(words, catalogWords()...)
	return words
}

// catalogWords builds valid encodings through every internal/riscv encoder
// with a few operand samples each, so the sweep also covers nonzero
// register and immediate fields.
func catalogWords() []uint32 {
	var w []uint32
	add := func(ws ...uint32) { w = append(w, ws...) }

	add(riscv.LUI(1, 0xfffff), riscv.AUIPC(2, 1))
	add(riscv.JAL(1, 2048), riscv.JAL(0, -4))
	add(riscv.JALR(1, 2, -4), riscv.JALR(0, 31, 2047))
	add(riscv.BEQ(1, 2, -8), riscv.BNE(3, 4, 8), riscv.BLT(5, 6, 16),
		riscv.BGE(7, 8, -16), riscv.BLTU(9, 10, 32), riscv.BGEU(11, 12, -32))
	add(riscv.LB(1, 2, -1), riscv.LH(3, 4, 2), riscv.LW(5, 6, 4),
		riscv.LBU(7, 8, 1), riscv.LHU(9, 10, -2))
	add(riscv.SB(1, 2, -1), riscv.SH(3, 4, 2), riscv.SW(5, 6, 4))
	add(riscv.ADDI(1, 2, -1), riscv.SLTI(3, 4, 2047), riscv.SLTIU(5, 6, -2048),
		riscv.XORI(7, 8, 0x555), riscv.ORI(9, 10, -1), riscv.ANDI(11, 12, 0xff))
	add(riscv.SLLI(1, 2, 31), riscv.SRLI(3, 4, 1), riscv.SRAI(5, 6, 31))
	add(riscv.ADD(1, 2, 3), riscv.SUB(4, 5, 6), riscv.SLL(7, 8, 9),
		riscv.SLT(10, 11, 12), riscv.SLTU(13, 14, 15), riscv.XOR(16, 17, 18),
		riscv.SRL(19, 20, 21), riscv.SRA(22, 23, 24), riscv.OR(25, 26, 27),
		riscv.AND(28, 29, 30))
	// The RV32M encodings (funct7 0x01), which must decode as illegal.
	for f3 := uint32(0); f3 < 8; f3++ {
		add(riscv.EncodeR(riscv.OpReg, 1+3*f3, f3, 2+3*f3, 3+3*f3, 0x01))
	}
	add(riscv.FENCE(), riscv.ECALL(), riscv.EBREAK(), riscv.WFI(), riscv.MRET())
	add(riscv.CSRRW(1, riscv.CSRMScratch, 2), riscv.CSRRS(3, riscv.CSRMStatus, 4),
		riscv.CSRRC(5, riscv.CSRMTvec, 6), riscv.CSRRWI(7, riscv.CSRMScratch, 31),
		riscv.CSRRSI(8, riscv.CSRMCause, 1), riscv.CSRRCI(9, riscv.CSRMEpc, 15))

	// The reserved RV32 shift-immediate encodings with bit 25 set: illegal
	// per spec, accepted as shifts by the E0–E2 widened masks.
	const bit25 = uint32(1) << 25
	add(riscv.SLLI(1, 2, 3)|bit25, riscv.SRLI(4, 5, 6)|bit25, riscv.SRAI(7, 8, 9)|bit25)
	return w
}

// CheckAllFor verifies the clean configuration plus every single-fault
// configuration for the given core, and returns the reports in that order.
func CheckAllFor(core CoreKind) []*Report {
	reps := []*Report{Check(Config{Core: core, Faults: faults.None})}
	for _, f := range faults.All() {
		reps = append(reps, Check(Config{Core: core, Faults: faults.Only(f)}))
	}
	return reps
}
