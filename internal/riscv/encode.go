package riscv

// Instruction-format encoders. Register indices are masked to 5 bits;
// immediates take their format's canonical bit slices, so callers may pass
// sign-extended 32-bit immediates.

// EncodeR builds an R-type word.
func EncodeR(opcode, rd, funct3, rs1, rs2, funct7 uint32) uint32 {
	return opcode&0x7f | (rd&0x1f)<<7 | (funct3&7)<<12 | (rs1&0x1f)<<15 | (rs2&0x1f)<<20 | (funct7&0x7f)<<25
}

// EncodeI builds an I-type word with a 12-bit immediate.
func EncodeI(opcode, rd, funct3, rs1 uint32, imm int32) uint32 {
	return opcode&0x7f | (rd&0x1f)<<7 | (funct3&7)<<12 | (rs1&0x1f)<<15 | uint32(imm&0xfff)<<20
}

// EncodeS builds an S-type word with a 12-bit immediate.
func EncodeS(opcode, funct3, rs1, rs2 uint32, imm int32) uint32 {
	u := uint32(imm & 0xfff)
	return opcode&0x7f | (u&0x1f)<<7 | (funct3&7)<<12 | (rs1&0x1f)<<15 | (rs2&0x1f)<<20 | (u>>5)<<25
}

// EncodeB builds a B-type word; the immediate is a byte offset (bit 0 ignored).
func EncodeB(opcode, funct3, rs1, rs2 uint32, imm int32) uint32 {
	u := uint32(imm)
	return opcode&0x7f |
		(u>>11&1)<<7 | (u>>1&0xf)<<8 |
		(funct3&7)<<12 | (rs1&0x1f)<<15 | (rs2&0x1f)<<20 |
		(u>>5&0x3f)<<25 | (u>>12&1)<<31
}

// EncodeU builds a U-type word; imm supplies bits 31..12.
func EncodeU(opcode, rd uint32, imm uint32) uint32 {
	return opcode&0x7f | (rd&0x1f)<<7 | imm&0xfffff000
}

// EncodeJ builds a J-type word; the immediate is a byte offset (bit 0 ignored).
func EncodeJ(opcode, rd uint32, imm int32) uint32 {
	u := uint32(imm)
	return opcode&0x7f | (rd&0x1f)<<7 |
		(u>>12&0xff)<<12 | (u>>11&1)<<20 | (u>>1&0x3ff)<<21 | (u>>20&1)<<31
}

// Mnemonic builders for every RV32I + Zicsr instruction.

// LUI encodes lui rd, imm[31:12].
func LUI(rd uint32, imm uint32) uint32 { return EncodeU(OpLUI, rd, imm) }

// AUIPC encodes auipc rd, imm[31:12].
func AUIPC(rd uint32, imm uint32) uint32 { return EncodeU(OpAUIPC, rd, imm) }

// JAL encodes jal rd, offset.
func JAL(rd uint32, offset int32) uint32 { return EncodeJ(OpJAL, rd, offset) }

// JALR encodes jalr rd, rs1, offset.
func JALR(rd, rs1 uint32, offset int32) uint32 { return EncodeI(OpJALR, rd, 0, rs1, offset) }

// BEQ encodes beq rs1, rs2, offset.
func BEQ(rs1, rs2 uint32, offset int32) uint32 { return EncodeB(OpBranch, F3BEQ, rs1, rs2, offset) }

// BNE encodes bne rs1, rs2, offset.
func BNE(rs1, rs2 uint32, offset int32) uint32 { return EncodeB(OpBranch, F3BNE, rs1, rs2, offset) }

// BLT encodes blt rs1, rs2, offset.
func BLT(rs1, rs2 uint32, offset int32) uint32 { return EncodeB(OpBranch, F3BLT, rs1, rs2, offset) }

// BGE encodes bge rs1, rs2, offset.
func BGE(rs1, rs2 uint32, offset int32) uint32 { return EncodeB(OpBranch, F3BGE, rs1, rs2, offset) }

// BLTU encodes bltu rs1, rs2, offset.
func BLTU(rs1, rs2 uint32, offset int32) uint32 { return EncodeB(OpBranch, F3BLTU, rs1, rs2, offset) }

// BGEU encodes bgeu rs1, rs2, offset.
func BGEU(rs1, rs2 uint32, offset int32) uint32 { return EncodeB(OpBranch, F3BGEU, rs1, rs2, offset) }

// LB encodes lb rd, offset(rs1).
func LB(rd, rs1 uint32, offset int32) uint32 { return EncodeI(OpLoad, rd, F3LB, rs1, offset) }

// LH encodes lh rd, offset(rs1).
func LH(rd, rs1 uint32, offset int32) uint32 { return EncodeI(OpLoad, rd, F3LH, rs1, offset) }

// LW encodes lw rd, offset(rs1).
func LW(rd, rs1 uint32, offset int32) uint32 { return EncodeI(OpLoad, rd, F3LW, rs1, offset) }

// LBU encodes lbu rd, offset(rs1).
func LBU(rd, rs1 uint32, offset int32) uint32 { return EncodeI(OpLoad, rd, F3LBU, rs1, offset) }

// LHU encodes lhu rd, offset(rs1).
func LHU(rd, rs1 uint32, offset int32) uint32 { return EncodeI(OpLoad, rd, F3LHU, rs1, offset) }

// SB encodes sb rs2, offset(rs1).
func SB(rs1, rs2 uint32, offset int32) uint32 { return EncodeS(OpStore, F3SB, rs1, rs2, offset) }

// SH encodes sh rs2, offset(rs1).
func SH(rs1, rs2 uint32, offset int32) uint32 { return EncodeS(OpStore, F3SH, rs1, rs2, offset) }

// SW encodes sw rs2, offset(rs1).
func SW(rs1, rs2 uint32, offset int32) uint32 { return EncodeS(OpStore, F3SW, rs1, rs2, offset) }

// ADDI encodes addi rd, rs1, imm.
func ADDI(rd, rs1 uint32, imm int32) uint32 { return EncodeI(OpImm, rd, F3ADDSUB, rs1, imm) }

// SLTI encodes slti rd, rs1, imm.
func SLTI(rd, rs1 uint32, imm int32) uint32 { return EncodeI(OpImm, rd, F3SLT, rs1, imm) }

// SLTIU encodes sltiu rd, rs1, imm.
func SLTIU(rd, rs1 uint32, imm int32) uint32 { return EncodeI(OpImm, rd, F3SLTU, rs1, imm) }

// XORI encodes xori rd, rs1, imm.
func XORI(rd, rs1 uint32, imm int32) uint32 { return EncodeI(OpImm, rd, F3XOR, rs1, imm) }

// ORI encodes ori rd, rs1, imm.
func ORI(rd, rs1 uint32, imm int32) uint32 { return EncodeI(OpImm, rd, F3OR, rs1, imm) }

// ANDI encodes andi rd, rs1, imm.
func ANDI(rd, rs1 uint32, imm int32) uint32 { return EncodeI(OpImm, rd, F3AND, rs1, imm) }

// SLLI encodes slli rd, rs1, shamt.
func SLLI(rd, rs1, shamt uint32) uint32 { return EncodeR(OpImm, rd, F3SLL, rs1, shamt, 0) }

// SRLI encodes srli rd, rs1, shamt.
func SRLI(rd, rs1, shamt uint32) uint32 { return EncodeR(OpImm, rd, F3SRL, rs1, shamt, 0) }

// SRAI encodes srai rd, rs1, shamt.
func SRAI(rd, rs1, shamt uint32) uint32 { return EncodeR(OpImm, rd, F3SRL, rs1, shamt, 0x20) }

// ADD encodes add rd, rs1, rs2.
func ADD(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3ADDSUB, rs1, rs2, 0) }

// SUB encodes sub rd, rs1, rs2.
func SUB(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3ADDSUB, rs1, rs2, 0x20) }

// SLL encodes sll rd, rs1, rs2.
func SLL(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3SLL, rs1, rs2, 0) }

// SLT encodes slt rd, rs1, rs2.
func SLT(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3SLT, rs1, rs2, 0) }

// SLTU encodes sltu rd, rs1, rs2.
func SLTU(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3SLTU, rs1, rs2, 0) }

// XOR encodes xor rd, rs1, rs2.
func XOR(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3XOR, rs1, rs2, 0) }

// SRL encodes srl rd, rs1, rs2.
func SRL(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3SRL, rs1, rs2, 0) }

// SRA encodes sra rd, rs1, rs2.
func SRA(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3SRL, rs1, rs2, 0x20) }

// OR encodes or rd, rs1, rs2.
func OR(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3OR, rs1, rs2, 0) }

// AND encodes and rd, rs1, rs2.
func AND(rd, rs1, rs2 uint32) uint32 { return EncodeR(OpReg, rd, F3AND, rs1, rs2, 0) }

// FENCE encodes fence (pred/succ all).
func FENCE() uint32 { return EncodeI(OpMisc, 0, 0, 0, 0x0ff) }

// ECALL encodes ecall.
func ECALL() uint32 { return EncodeI(OpSystem, 0, F3PRIV, 0, F12ECALL) }

// EBREAK encodes ebreak.
func EBREAK() uint32 { return EncodeI(OpSystem, 0, F3PRIV, 0, F12EBREAK) }

// WFI encodes wfi.
func WFI() uint32 { return EncodeI(OpSystem, 0, F3PRIV, 0, F12WFI) }

// MRET encodes mret.
func MRET() uint32 { return EncodeI(OpSystem, 0, F3PRIV, 0, F12MRET) }

// CSRRW encodes csrrw rd, csr, rs1.
func CSRRW(rd, csr, rs1 uint32) uint32 { return EncodeI(OpSystem, rd, F3CSRRW, rs1, int32(csr)) }

// CSRRS encodes csrrs rd, csr, rs1.
func CSRRS(rd, csr, rs1 uint32) uint32 { return EncodeI(OpSystem, rd, F3CSRRS, rs1, int32(csr)) }

// CSRRC encodes csrrc rd, csr, rs1.
func CSRRC(rd, csr, rs1 uint32) uint32 { return EncodeI(OpSystem, rd, F3CSRRC, rs1, int32(csr)) }

// CSRRWI encodes csrrwi rd, csr, zimm.
func CSRRWI(rd, csr, zimm uint32) uint32 { return EncodeI(OpSystem, rd, F3CSRRWI, zimm, int32(csr)) }

// CSRRSI encodes csrrsi rd, csr, zimm.
func CSRRSI(rd, csr, zimm uint32) uint32 { return EncodeI(OpSystem, rd, F3CSRRSI, zimm, int32(csr)) }

// CSRRCI encodes csrrci rd, csr, zimm.
func CSRRCI(rd, csr, zimm uint32) uint32 { return EncodeI(OpSystem, rd, F3CSRRCI, zimm, int32(csr)) }
