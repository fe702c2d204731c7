package riscv

import "fmt"

// Disasm renders an instruction word in assembler syntax, used to print the
// example column of the Table I reproduction and counterexample reports.
func Disasm(w uint32) string {
	in := Decode(w)
	switch {
	case in.Mn == InsInvalid:
		return fmt.Sprintf(".word 0x%08x", w)
	case in.Mn == InsLUI || in.Mn == InsAUIPC:
		return fmt.Sprintf("%s x%d, 0x%x", in.Mn, in.Rd, uint32(in.Imm)>>12)
	case in.Mn == InsJAL:
		return fmt.Sprintf("jal x%d, %d", in.Rd, in.Imm)
	case in.Mn == InsJALR:
		return fmt.Sprintf("jalr x%d, %d(x%d)", in.Rd, in.Imm, in.Rs1)
	case in.Mn.IsBranch():
		return fmt.Sprintf("%s x%d, x%d, %d", in.Mn, in.Rs1, in.Rs2, in.Imm)
	case in.Mn.IsLoad():
		return fmt.Sprintf("%s x%d, %d(x%d)", in.Mn, in.Rd, in.Imm, in.Rs1)
	case in.Mn.IsStore():
		return fmt.Sprintf("%s x%d, %d(x%d)", in.Mn, in.Rs2, in.Imm, in.Rs1)
	case in.Mn == InsSLLI || in.Mn == InsSRLI || in.Mn == InsSRAI:
		return fmt.Sprintf("%s x%d, x%d, %d", in.Mn, in.Rd, in.Rs1, in.Imm)
	case in.Mn >= InsADDI && in.Mn <= InsANDI:
		return fmt.Sprintf("%s x%d, x%d, %d", in.Mn, in.Rd, in.Rs1, in.Imm)
	case in.Mn >= InsADD && in.Mn <= InsAND:
		return fmt.Sprintf("%s x%d, x%d, x%d", in.Mn, in.Rd, in.Rs1, in.Rs2)
	case in.Mn == InsCSRRW || in.Mn == InsCSRRS || in.Mn == InsCSRRC:
		return fmt.Sprintf("%s x%d, %s, x%d", in.Mn, in.Rd, CSRName(in.CSR), in.Rs1)
	case in.Mn == InsCSRRWI || in.Mn == InsCSRRSI || in.Mn == InsCSRRCI:
		return fmt.Sprintf("%s x%d, %s, %d", in.Mn, in.Rd, CSRName(in.CSR), in.Zimm)
	default: // fence/ecall/ebreak/wfi/mret
		return in.Mn.String()
	}
}
