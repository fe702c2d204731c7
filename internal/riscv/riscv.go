// Package riscv holds the RV32I + Zicsr instruction-set tables shared by the
// reference ISS, the RTL core models, the instruction encoders, and the
// disassembler that renders counterexamples: opcodes, instruction formats,
// immediate codecs, and the CSR catalogue.
package riscv

import "fmt"

// Major opcodes (instruction bits 6..0).
const (
	OpLUI    = 0x37
	OpAUIPC  = 0x17
	OpJAL    = 0x6F
	OpJALR   = 0x67
	OpBranch = 0x63
	OpLoad   = 0x03
	OpStore  = 0x23
	OpImm    = 0x13
	OpReg    = 0x33
	OpMisc   = 0x0F // FENCE
	OpSystem = 0x73 // ECALL/EBREAK/CSR*/WFI/MRET
)

// funct3 values for BRANCH.
const (
	F3BEQ  = 0
	F3BNE  = 1
	F3BLT  = 4
	F3BGE  = 5
	F3BLTU = 6
	F3BGEU = 7
)

// funct3 values for LOAD.
const (
	F3LB  = 0
	F3LH  = 1
	F3LW  = 2
	F3LBU = 4
	F3LHU = 5
)

// funct3 values for STORE.
const (
	F3SB = 0
	F3SH = 1
	F3SW = 2
)

// funct3 values for OP/OP-IMM.
const (
	F3ADDSUB = 0
	F3SLL    = 1
	F3SLT    = 2
	F3SLTU   = 3
	F3XOR    = 4
	F3SRL    = 5 // also SRA, selected by bit 30
	F3OR     = 6
	F3AND    = 7
)

// funct3 values for SYSTEM.
const (
	F3PRIV   = 0 // ECALL/EBREAK/WFI/MRET
	F3CSRRW  = 1
	F3CSRRS  = 2
	F3CSRRC  = 3
	F3CSRRWI = 5
	F3CSRRSI = 6
	F3CSRRCI = 7
)

// SYSTEM funct12 values (bits 31..20) for the privileged instructions.
const (
	F12ECALL  = 0x000
	F12EBREAK = 0x001
	F12MRET   = 0x302
	F12WFI    = 0x105
)

// Mnemonic identifies one architectural instruction.
type Mnemonic uint8

// RV32I + Zicsr mnemonics.
const (
	InsInvalid Mnemonic = iota
	InsLUI
	InsAUIPC
	InsJAL
	InsJALR
	InsBEQ
	InsBNE
	InsBLT
	InsBGE
	InsBLTU
	InsBGEU
	InsLB
	InsLH
	InsLW
	InsLBU
	InsLHU
	InsSB
	InsSH
	InsSW
	InsADDI
	InsSLTI
	InsSLTIU
	InsXORI
	InsORI
	InsANDI
	InsSLLI
	InsSRLI
	InsSRAI
	InsADD
	InsSUB
	InsSLL
	InsSLT
	InsSLTU
	InsXOR
	InsSRL
	InsSRA
	InsOR
	InsAND
	InsFENCE
	InsECALL
	InsEBREAK
	InsWFI
	InsMRET
	InsCSRRW
	InsCSRRS
	InsCSRRC
	InsCSRRWI
	InsCSRRSI
	InsCSRRCI
	numMnemonics
)

var mnemonicNames = [numMnemonics]string{
	InsInvalid: "invalid",
	InsLUI:     "lui", InsAUIPC: "auipc", InsJAL: "jal", InsJALR: "jalr",
	InsBEQ: "beq", InsBNE: "bne", InsBLT: "blt", InsBGE: "bge", InsBLTU: "bltu", InsBGEU: "bgeu",
	InsLB: "lb", InsLH: "lh", InsLW: "lw", InsLBU: "lbu", InsLHU: "lhu",
	InsSB: "sb", InsSH: "sh", InsSW: "sw",
	InsADDI: "addi", InsSLTI: "slti", InsSLTIU: "sltiu", InsXORI: "xori", InsORI: "ori", InsANDI: "andi",
	InsSLLI: "slli", InsSRLI: "srli", InsSRAI: "srai",
	InsADD: "add", InsSUB: "sub", InsSLL: "sll", InsSLT: "slt", InsSLTU: "sltu",
	InsXOR: "xor", InsSRL: "srl", InsSRA: "sra", InsOR: "or", InsAND: "and",
	InsFENCE: "fence", InsECALL: "ecall", InsEBREAK: "ebreak", InsWFI: "wfi", InsMRET: "mret",
	InsCSRRW: "csrrw", InsCSRRS: "csrrs", InsCSRRC: "csrrc",
	InsCSRRWI: "csrrwi", InsCSRRSI: "csrrsi", InsCSRRCI: "csrrci",
}

func (m Mnemonic) String() string {
	if m < numMnemonics {
		return mnemonicNames[m]
	}
	return fmt.Sprintf("mnemonic(%d)", uint8(m))
}

// IsLoad reports whether the mnemonic is a load instruction.
func (m Mnemonic) IsLoad() bool { return m >= InsLB && m <= InsLHU }

// IsStore reports whether the mnemonic is a store instruction.
func (m Mnemonic) IsStore() bool { return m >= InsSB && m <= InsSW }

// IsBranch reports whether the mnemonic is a conditional branch.
func (m Mnemonic) IsBranch() bool { return m >= InsBEQ && m <= InsBGEU }

// IsCSR reports whether the mnemonic is a Zicsr instruction.
func (m Mnemonic) IsCSR() bool { return m >= InsCSRRW && m <= InsCSRRCI }

// Exception cause codes (mcause values) used by both models.
const (
	ExcInstrAddrMisaligned = 0
	ExcIllegalInstruction  = 2
	ExcBreakpoint          = 3
	ExcLoadAddrMisaligned  = 4
	ExcStoreAddrMisaligned = 6
	ExcEnvCallFromM        = 11
)

// ExcName returns a readable name for an exception cause code.
func ExcName(cause uint32) string {
	switch cause {
	case ExcInstrAddrMisaligned:
		return "instruction-address-misaligned"
	case ExcIllegalInstruction:
		return "illegal-instruction"
	case ExcBreakpoint:
		return "breakpoint"
	case ExcLoadAddrMisaligned:
		return "load-address-misaligned"
	case ExcStoreAddrMisaligned:
		return "store-address-misaligned"
	case ExcEnvCallFromM:
		return "ecall-from-M"
	}
	return fmt.Sprintf("cause(%d)", cause)
}
