package harness

import (
	"testing"

	"symriscv/internal/cosim"
	"symriscv/internal/riscv"
	"symriscv/internal/rvfi"
)

func TestClassifyRows(t *testing.T) {
	cases := []struct {
		name string
		m    rvfi.Mismatch
		want RowClass
	}{
		{
			"misaligned load",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, ISSTrap: true, Insn: riscv.LW(0, 0, 1)},
			RowClass{"LW", "Missing alignment check", VerdictMismatch},
		},
		{
			"misaligned store",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, ISSTrap: true, Insn: riscv.SH(0, 0, 1)},
			RowClass{"SH", "Missing alignment check", VerdictMismatch},
		},
		{
			"wfi",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, RTLTrap: true, Insn: riscv.WFI()},
			RowClass{"WFI", "Missing WFI instruction", VerdictRTLError},
		},
		{
			"unknown csr",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, ISSTrap: true, Insn: riscv.CSRRW(0, 0x400, 0)},
			RowClass{"unimpl. CSRs", "Missing trap at access", VerdictRTLError},
		},
		{
			"readonly id write",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, ISSTrap: true, Insn: riscv.CSRRW(0, riscv.CSRMArchID, 1)},
			RowClass{"marchid", "Missing trap at write", VerdictRTLError},
		},
		{
			"vp mideleg read",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, ISSTrap: true, Insn: riscv.CSRRS(1, riscv.CSRMIdeleg, 0)},
			RowClass{"mideleg", "VP traps at mideleg read", VerdictISSError},
		},
		{
			"counter write trap",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, RTLTrap: true, Insn: riscv.CSRRW(0, riscv.CSRMCycle, 0)},
			RowClass{"mcycle", "Trap at write access", VerdictRTLError},
		},
		{
			"cycle count",
			rvfi.Mismatch{Kind: rvfi.RdMismatch, Insn: riscv.CSRRS(1, riscv.CSRMInstret, 0)},
			RowClass{"minstret", "Cycle Count Mismatch", VerdictMismatch},
		},
		{
			"unprivileged counter",
			rvfi.Mismatch{Kind: rvfi.RdMismatch, Insn: riscv.CSRRS(1, riscv.CSRTime, 0)},
			RowClass{"time", "unimpl. Unprivileged CSR", VerdictMismatch},
		},
		{
			"unprivileged counter via write trap",
			rvfi.Mismatch{Kind: rvfi.TrapMismatch, ISSTrap: true, Insn: riscv.CSRRW(0, riscv.CSRTimeH, 1)},
			RowClass{"timeh", "unimpl. Unprivileged CSR", VerdictMismatch},
		},
		{
			"hpm range",
			rvfi.Mismatch{Kind: rvfi.RdMismatch, Insn: riscv.CSRRW(1, riscv.CSRMHpmCounterBase+16, 2)},
			RowClass{"mhpmcounter3-31", "unimpl. Privileged CSR", VerdictMismatch},
		},
		{
			"hpm high range",
			rvfi.Mismatch{Kind: rvfi.RdMismatch, Insn: riscv.CSRRW(1, riscv.CSRMHpmCounterHBase+3, 2)},
			RowClass{"mhpmcounter3-31h", "unimpl. Privileged CSR", VerdictMismatch},
		},
		{
			"hpm event range",
			rvfi.Mismatch{Kind: rvfi.RdMismatch, Insn: riscv.CSRRW(1, riscv.CSRMHpmEventBase+16, 2)},
			RowClass{"mhpmevent3-31", "unimpl. Privileged CSR", VerdictMismatch},
		},
		{
			"mscratch",
			rvfi.Mismatch{Kind: rvfi.RdMismatch, Insn: riscv.CSRRW(1, riscv.CSRMScratch, 2)},
			RowClass{"mscratch", "unimpl. Privileged CSR", VerdictMismatch},
		},
		{
			"generic alu fallback",
			rvfi.Mismatch{Kind: rvfi.RdMismatch, Insn: riscv.ADDI(1, 1, 1)},
			RowClass{"ADDI", "rd-mismatch", VerdictMismatch},
		},
	}
	for _, tc := range cases {
		got := ClassifyFor(cosim.CoreMicroRV32, &tc.m)
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestRowRankOrdering(t *testing.T) {
	lw := RowClass{"LW", "Missing alignment check", VerdictMismatch}
	wfi := RowClass{"WFI", "Missing WFI instruction", VerdictRTLError}
	unknown := RowClass{"something", "else", VerdictMismatch}
	if rowRank(lw) >= rowRank(wfi) {
		t.Error("LW must sort before WFI (paper order)")
	}
	if rowRank(unknown) != len(paperRowOrder) {
		t.Error("unknown rows must sort last")
	}
}
