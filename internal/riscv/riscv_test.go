package riscv

import (
	"math/rand"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		word string
		w    uint32
		want Inst
	}{
		{"lui", LUI(5, 0xdead0000), Inst{Mn: InsLUI, Rd: 5, Imm: int32(-559087616)}}, // 0xdead0000
		{"auipc", AUIPC(1, 0x1000), Inst{Mn: InsAUIPC, Rd: 1, Imm: 0x1000}},
		{"jal", JAL(1, -2048), Inst{Mn: InsJAL, Rd: 1, Imm: -2048}},
		{"jalr", JALR(1, 2, 16), Inst{Mn: InsJALR, Rd: 1, Rs1: 2, Imm: 16}},
		{"beq", BEQ(1, 2, -4), Inst{Mn: InsBEQ, Rs1: 1, Rs2: 2, Imm: -4}},
		{"bne", BNE(3, 4, 4094), Inst{Mn: InsBNE, Rs1: 3, Rs2: 4, Imm: 4094}},
		{"bge", BGE(3, 4, -4096), Inst{Mn: InsBGE, Rs1: 3, Rs2: 4, Imm: -4096}},
		{"lb", LB(1, 2, -1), Inst{Mn: InsLB, Rd: 1, Rs1: 2, Imm: -1}},
		{"lhu", LHU(1, 2, 2047), Inst{Mn: InsLHU, Rd: 1, Rs1: 2, Imm: 2047}},
		{"sw", SW(2, 3, -2048), Inst{Mn: InsSW, Rs1: 2, Rs2: 3, Imm: -2048}},
		{"addi", ADDI(1, 0, 42), Inst{Mn: InsADDI, Rd: 1, Imm: 42}},
		{"slli", SLLI(1, 2, 31), Inst{Mn: InsSLLI, Rd: 1, Rs1: 2, Rs2: 31, Imm: 31}},
		{"srai", SRAI(1, 2, 7), Inst{Mn: InsSRAI, Rd: 1, Rs1: 2, Rs2: 7, Imm: 7}},
		{"sub", SUB(3, 4, 5), Inst{Mn: InsSUB, Rd: 3, Rs1: 4, Rs2: 5}},
		{"sra", SRA(3, 4, 5), Inst{Mn: InsSRA, Rd: 3, Rs1: 4, Rs2: 5}},
		{"csrrw", CSRRW(1, CSRMScratch, 2), Inst{Mn: InsCSRRW, Rd: 1, Rs1: 2, CSR: CSRMScratch}},
		{"csrrsi", CSRRSI(2, CSRCycle, 5), Inst{Mn: InsCSRRSI, Rd: 2, Rs1: 5, CSR: CSRCycle, Zimm: 5}},
	}
	for _, tc := range cases {
		got := Decode(tc.w)
		if got.Mn != tc.want.Mn {
			t.Errorf("%s: mnemonic %v, want %v", tc.word, got.Mn, tc.want.Mn)
			continue
		}
		if got.Rd != tc.want.Rd && hasRd(tc.want.Mn) {
			t.Errorf("%s: rd=%d want %d", tc.word, got.Rd, tc.want.Rd)
		}
		if got.Imm != tc.want.Imm && tc.want.Imm != 0 {
			t.Errorf("%s: imm=%d want %d", tc.word, got.Imm, tc.want.Imm)
		}
		if tc.want.CSR != 0 && got.CSR != tc.want.CSR {
			t.Errorf("%s: csr=%#x want %#x", tc.word, got.CSR, tc.want.CSR)
		}
	}
}

func hasRd(m Mnemonic) bool { return !m.IsBranch() && !m.IsStore() }

func TestPrivDecodes(t *testing.T) {
	for _, tc := range []struct {
		w    uint32
		want Mnemonic
	}{
		{ECALL(), InsECALL},
		{EBREAK(), InsEBREAK},
		{WFI(), InsWFI},
		{MRET(), InsMRET},
		{FENCE(), InsFENCE},
	} {
		if got := Decode(tc.w).Mn; got != tc.want {
			t.Errorf("Decode(%#x) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestReservedEncodingsInvalid(t *testing.T) {
	cases := []uint32{
		SLLI(1, 2, 3) | 1<<25,                   // RV64 shamt bit set: reserved in RV32
		SRLI(1, 2, 3) | 1<<25,                   // ditto
		EncodeR(OpReg, 1, F3ADDSUB, 2, 3, 0x02), // bogus funct7
		EncodeR(OpReg, 1, F3XOR, 2, 3, 0x20),    // funct7=0x20 only for sub/sra
		EncodeI(OpJALR, 1, 1, 2, 0) | 1<<12,     // jalr funct3 != 0
		EncodeB(OpBranch, 2, 1, 2, 4),           // branch funct3=2 reserved
		EncodeI(OpLoad, 1, 3, 2, 0),             // load funct3=3 reserved
		EncodeS(OpStore, 3, 1, 2, 0),            // store funct3=3 reserved
		0x00000000,
		0xffffffff,
	}
	for _, w := range cases {
		if got := Decode(w).Mn; got != InsInvalid {
			t.Errorf("Decode(%#08x) = %v, want invalid", w, got)
		}
	}
}

func TestImmCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		immI := int32(rng.Intn(4096) - 2048)
		if got := ImmI(EncodeI(OpImm, 0, 0, 0, immI)); got != immI {
			t.Fatalf("ImmI roundtrip: %d -> %d", immI, got)
		}
		if got := ImmS(EncodeS(OpStore, 0, 0, 0, immI)); got != immI {
			t.Fatalf("ImmS roundtrip: %d -> %d", immI, got)
		}
		immB := int32(rng.Intn(8192)-4096) &^ 1
		if got := ImmB(EncodeB(OpBranch, 0, 0, 0, immB)); got != immB {
			t.Fatalf("ImmB roundtrip: %d -> %d", immB, got)
		}
		immJ := int32(rng.Intn(1<<21)-(1<<20)) &^ 1
		if got := ImmJ(EncodeJ(OpJAL, 0, immJ)); got != immJ {
			t.Fatalf("ImmJ roundtrip: %d -> %d", immJ, got)
		}
		immU := int32(uint32(rng.Uint32()) & 0xfffff000)
		if got := ImmU(EncodeU(OpLUI, 0, uint32(immU))); got != immU {
			t.Fatalf("ImmU roundtrip: %#x -> %#x", immU, got)
		}
	}
}

func TestDecodeIgnoresNoMnemonicFields(t *testing.T) {
	// Every decodable word re-encoded from its fields must decode to the
	// same mnemonic (field-extraction consistency under fuzzing).
	rng := rand.New(rand.NewSource(77))
	n := 0
	for i := 0; i < 20000; i++ {
		w := rng.Uint32()
		in := Decode(w)
		if in.Mn == InsInvalid {
			continue
		}
		n++
		if in.Raw != w {
			t.Fatalf("Raw not preserved for %#x", w)
		}
	}
	if n == 0 {
		t.Fatal("fuzz never hit a valid encoding")
	}
}

func TestCSRCatalog(t *testing.T) {
	if !CSRReadOnly(CSRMVendorID) || !CSRReadOnly(CSRCycle) {
		t.Error("mvendorid/cycle must be read-only")
	}
	if CSRReadOnly(CSRMScratch) || CSRReadOnly(CSRMCycle) {
		t.Error("mscratch/mcycle must be writable")
	}
	names := map[uint16]string{
		CSRMArchID:              "marchid",
		CSRMIdeleg:              "mideleg",
		CSRMHpmCounterBase + 16: "mhpmcounter16",
		CSRMHpmCounterHBase + 3: "mhpmcounter3h",
		CSRMHpmEventBase + 16:   "mhpmevent16",
		CSRTimeH:                "timeh",
		0x7C0:                   "0x7c0",
	}
	for addr, want := range names {
		if got := CSRName(addr); got != want {
			t.Errorf("CSRName(%#x) = %q, want %q", addr, got, want)
		}
	}
}

func TestDisasm(t *testing.T) {
	cases := []struct {
		w    uint32
		want string
	}{
		{ADDI(1, 2, -5), "addi x1, x2, -5"},
		{LW(0, 0, 1), "lw x0, 1(x0)"},
		{SW(0, 0, 1), "sw x0, 1(x0)"},
		{BNE(1, 2, 8), "bne x1, x2, 8"},
		{JAL(1, 16), "jal x1, 16"},
		{JALR(1, 2, 4), "jalr x1, 4(x2)"},
		{LUI(3, 0xabcde000), "lui x3, 0xabcde"},
		{SLLI(1, 2, 5), "slli x1, x2, 5"},
		{ADD(1, 2, 3), "add x1, x2, x3"},
		{WFI(), "wfi"},
		{CSRRW(0, CSRMVendorID, 0), "csrrw x0, mvendorid, x0"},
		{CSRRCI(1, CSRMArchID, 1), "csrrci x1, marchid, 1"},
		{CSRRSI(2, CSRTime, 0), "csrrsi x2, time, 0"},
		{0x0000006b, ".word 0x0000006b"},
	}
	for _, tc := range cases {
		if got := Disasm(tc.w); got != tc.want {
			t.Errorf("Disasm(%#08x) = %q, want %q", tc.w, got, tc.want)
		}
	}
}

func TestMnemonicClasses(t *testing.T) {
	if !InsLW.IsLoad() || InsSW.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !InsSB.IsStore() || InsLB.IsStore() {
		t.Error("IsStore misclassifies")
	}
	if !InsBGEU.IsBranch() || InsJAL.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !InsCSRRCI.IsCSR() || InsECALL.IsCSR() {
		t.Error("IsCSR misclassifies")
	}
}

func TestNameHelpers(t *testing.T) {
	for cause, want := range map[uint32]string{
		ExcInstrAddrMisaligned: "instruction-address-misaligned",
		ExcIllegalInstruction:  "illegal-instruction",
		ExcBreakpoint:          "breakpoint",
		ExcLoadAddrMisaligned:  "load-address-misaligned",
		ExcStoreAddrMisaligned: "store-address-misaligned",
		ExcEnvCallFromM:        "ecall-from-M",
		99:                     "cause(99)",
	} {
		if got := ExcName(cause); got != want {
			t.Errorf("ExcName(%d) = %q, want %q", cause, got, want)
		}
	}
	if Mnemonic(250).String() == "" {
		t.Error("out-of-range mnemonic should still render")
	}
}

func TestDecodeFuzzMatchesDisasmAssemble(t *testing.T) {
	// Spot-check a few decoded CSR words render with names.
	w := CSRRW(2, CSRMCycle, 3)
	if got := Disasm(w); got != "csrrw x2, mcycle, x3" {
		t.Errorf("csr disasm: %q", got)
	}
	w = CSRRWI(2, 0x7C0, 9)
	if got := Disasm(w); got != "csrrwi x2, 0x7c0, 9" {
		t.Errorf("unknown csr disasm: %q", got)
	}
	if got := reencode(Decode(w)); got != w {
		t.Errorf("hex CSR round trip: %#08x re-encodes to %#08x", w, got)
	}
}

// reencode rebuilds an instruction word from its decoded fields with the
// mnemonic encoders; it returns 0, never a valid word, for InsInvalid.
func reencode(in Inst) uint32 {
	rd, rs1, rs2 := uint32(in.Rd), uint32(in.Rs1), uint32(in.Rs2)
	switch in.Mn {
	case InsLUI:
		return LUI(rd, uint32(in.Imm))
	case InsAUIPC:
		return AUIPC(rd, uint32(in.Imm))
	case InsJAL:
		return JAL(rd, in.Imm)
	case InsJALR:
		return JALR(rd, rs1, in.Imm)
	case InsBEQ, InsBNE, InsBLT, InsBGE, InsBLTU, InsBGEU:
		return [...]func(uint32, uint32, int32) uint32{BEQ, BNE, BLT, BGE, BLTU, BGEU}[in.Mn-InsBEQ](rs1, rs2, in.Imm)
	case InsLB, InsLH, InsLW, InsLBU, InsLHU:
		return [...]func(uint32, uint32, int32) uint32{LB, LH, LW, LBU, LHU}[in.Mn-InsLB](rd, rs1, in.Imm)
	case InsSB, InsSH, InsSW:
		return [...]func(uint32, uint32, int32) uint32{SB, SH, SW}[in.Mn-InsSB](rs1, rs2, in.Imm)
	case InsADDI, InsSLTI, InsSLTIU, InsXORI, InsORI, InsANDI:
		return [...]func(uint32, uint32, int32) uint32{ADDI, SLTI, SLTIU, XORI, ORI, ANDI}[in.Mn-InsADDI](rd, rs1, in.Imm)
	case InsSLLI, InsSRLI, InsSRAI:
		return [...]func(uint32, uint32, uint32) uint32{SLLI, SRLI, SRAI}[in.Mn-InsSLLI](rd, rs1, uint32(in.Imm))
	case InsADD, InsSUB, InsSLL, InsSLT, InsSLTU, InsXOR, InsSRL, InsSRA, InsOR, InsAND:
		return [...]func(uint32, uint32, uint32) uint32{ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND}[in.Mn-InsADD](rd, rs1, rs2)
	case InsFENCE:
		return EncodeI(OpMisc, rd, 0, rs1, in.Imm)
	case InsECALL, InsEBREAK, InsWFI, InsMRET:
		return [...]func() uint32{ECALL, EBREAK, WFI, MRET}[in.Mn-InsECALL]()
	case InsCSRRW, InsCSRRS, InsCSRRC:
		return [...]func(uint32, uint32, uint32) uint32{CSRRW, CSRRS, CSRRC}[in.Mn-InsCSRRW](rd, uint32(in.CSR), rs1)
	case InsCSRRWI, InsCSRRSI, InsCSRRCI:
		return [...]func(uint32, uint32, uint32) uint32{CSRRWI, CSRRSI, CSRRCI}[in.Mn-InsCSRRWI](rd, uint32(in.CSR), in.Zimm)
	}
	return 0
}

// TestDecodeReencodeRoundTrip checks the decoder against the encoders, which
// were written apart from it: every word Decode accepts re-encodes from its
// decoded fields to the same word, and every encoder's output decodes to its
// own mnemonic. Finding Err texts print this decoder's output (Disasm).
func TestDecodeReencodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	majors := []uint32{OpLUI, OpAUIPC, OpJAL, OpJALR, OpBranch, OpLoad, OpStore, OpImm, OpReg, OpMisc, OpSystem}
	for i := 0; i < 1<<17; i++ {
		w := rng.Uint32()
		if i%2 == 0 { // half the words get a major opcode, so most decode
			w = w&^0x7f | majors[rng.Intn(len(majors))]
		}
		in := Decode(w)
		if in.Mn == InsInvalid {
			continue
		}
		if got := reencode(in); got != w {
			t.Fatalf("Decode(%#08x) = %q re-encodes to %#08x (%q)", w, Disasm(w), got, Disasm(got))
		}
	}
	for m := InsLUI; m < numMnemonics; m++ {
		in := Inst{Mn: m, Rd: rng.Intn(32), Rs1: rng.Intn(32), Rs2: rng.Intn(32),
			Imm: int32(rng.Uint32()), CSR: uint16(rng.Intn(1 << 12)), Zimm: uint32(rng.Intn(32))}
		if m >= InsSLLI && m <= InsSRAI {
			in.Imm = int32(rng.Intn(32))
		}
		w := reencode(in)
		got := Decode(w)
		if got.Mn != m {
			t.Errorf("the %v encoder's %#08x decodes to %v", m, w, got.Mn)
			continue
		}
		if w2 := reencode(got); w2 != w {
			t.Errorf("%v: %#08x (%q) re-encodes to %#08x", m, w, Disasm(w), w2)
		}
	}
}
