// Package harness regenerates the paper's evaluation artefacts: the Table I
// mismatch/error catalogue, the Table II error-injection study, the
// exemplary long-run statistics, and the sliced-register ablation. Each
// runner returns structured results plus a text rendering in the paper's
// table layout.
package harness

import (
	"strings"

	"symriscv/internal/cosim"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/riscv"
	"symriscv/internal/rvfi"
)

// Verdict is the R column of Table I.
type Verdict string

// Verdicts: error in the RTL core, error in the ISS, implementation
// mismatch.
const (
	VerdictRTLError Verdict = "E"
	VerdictISSError Verdict = "E*"
	VerdictMismatch Verdict = "M"
)

// RowClass is the classified identity of one Table I row.
type RowClass struct {
	Subject string  // instruction or CSR name ("LW", "mcycle", "unimpl. CSRs")
	Desc    string  // short description ("Missing alignment check")
	R       Verdict // classification
}

// Key returns a dedupe key for the row.
func (rc RowClass) Key() string { return rc.Subject + "|" + rc.Desc }

// ClassifyFor maps a checker mismatch onto its Table I row identity for the
// given core, using the witness instruction and both models' trap
// behaviour. The row vocabulary is core-aware where the cores' feature sets
// differ: the pipelined core implements no Zicsr or MRET, so its CSR and
// MRET mismatches classify as missing-feature rows rather than per-CSR
// behaviour bugs.
func ClassifyFor(kind cosim.CoreKind, m *rvfi.Mismatch) RowClass {
	in := riscv.Decode(m.Insn)

	switch {
	case in.Mn.IsLoad() || in.Mn.IsStore():
		if m.Kind == rvfi.TrapMismatch && m.ISSTrap && !m.RTLTrap {
			return RowClass{strings.ToUpper(in.Mn.String()), "Missing alignment check", VerdictMismatch}
		}
		return RowClass{strings.ToUpper(in.Mn.String()), "Load/store result mismatch", VerdictMismatch}

	case in.Mn == riscv.InsWFI:
		return RowClass{"WFI", "Missing WFI instruction", VerdictRTLError}

	case in.Mn == riscv.InsMRET && kind == cosim.CorePipecore:
		return RowClass{"MRET", "Missing MRET instruction", VerdictRTLError}

	case in.Mn.IsCSR():
		return classifyCSR(kind, m, in)
	}
	return RowClass{strings.ToUpper(in.Mn.String()), m.Kind.String(), VerdictMismatch}
}

func classifyCSR(kind cosim.CoreKind, m *rvfi.Mismatch, in riscv.Inst) RowClass {
	addr := in.CSR
	name := riscv.CSRName(addr)
	issHas := iss.ImplementsCSR(addr)
	rtlHas := rtlImplementsCSR(kind, addr)

	// Collapse the hpm register files into the paper's range rows.
	switch {
	case addr >= riscv.CSRMHpmCounterBase+3 && addr <= riscv.CSRMHpmCounterBase+31:
		name = "mhpmcounter3-31"
	case addr >= riscv.CSRMHpmCounterHBase+3 && addr <= riscv.CSRMHpmCounterHBase+31:
		name = "mhpmcounter3-31h"
	case addr >= riscv.CSRMHpmEventBase+3 && addr <= riscv.CSRMHpmEventBase+31:
		name = "mhpmevent3-31"
	}

	if kind == cosim.CorePipecore {
		// The pipelined core implements no Zicsr at all: every CSR access
		// traps as illegal regardless of the address, so each probed CSR
		// classifies as the same missing feature.
		return RowClass{name, "unimpl. Zicsr (no CSR file)", VerdictMismatch}
	}

	switch {
	case m.RTLTrap && !m.ISSTrap:
		// The shipped core's spurious traps on counter/mip writes.
		return RowClass{name, "Trap at write access", VerdictRTLError}

	case m.ISSTrap && !m.RTLTrap:
		switch {
		case addr == riscv.CSRMIdeleg:
			return RowClass{"mideleg", "VP traps at mideleg read", VerdictISSError}
		case addr == riscv.CSRMEdeleg:
			return RowClass{"medeleg", "VP traps at medeleg read", VerdictISSError}
		case !issHas:
			// Unknown to the reference too: the RTL misses the mandatory
			// illegal-instruction trap for non-existent CSRs.
			return RowClass{"unimpl. CSRs", "Missing trap at access", VerdictRTLError}
		case !rtlHas && addr >= 0xC00:
			// The ISS trapped for its own architectural reason (write to a
			// read-only user counter); the root cause reported by the paper
			// is that the core does not implement the CSR at all.
			return RowClass{name, "unimpl. Unprivileged CSR", VerdictMismatch}
		case !rtlHas:
			return RowClass{name, "unimpl. Privileged CSR", VerdictMismatch}
		case riscv.CSRReadOnly(addr):
			return RowClass{name, "Missing trap at write", VerdictRTLError}
		default:
			return RowClass{name, "Missing trap", VerdictRTLError}
		}

	default: // value mismatch without trap disagreement
		switch {
		case addr == riscv.CSRMCycle || addr == riscv.CSRMInstret ||
			addr == riscv.CSRMCycleH || addr == riscv.CSRMInstretH:
			return RowClass{name, "Cycle Count Mismatch", VerdictMismatch}
		case !rtlHas && addr >= 0xC00:
			return RowClass{name, "unimpl. Unprivileged CSR", VerdictMismatch}
		case !rtlHas:
			return RowClass{name, "unimpl. Privileged CSR", VerdictMismatch}
		default:
			return RowClass{name, "CSR value mismatch", VerdictMismatch}
		}
	}
}

// rtlImplementsCSR reports whether the selected core implements the CSR.
// The pipelined core has no CSR file; the microrv32 model answers from its
// implemented set.
func rtlImplementsCSR(kind cosim.CoreKind, addr uint16) bool {
	if kind == cosim.CorePipecore {
		return false
	}
	return microrv32.ImplementsCSR(addr)
}
