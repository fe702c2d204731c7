package riscv

// Immediate extractors (sign-extended where the format requires it).

// ImmI extracts the I-type immediate.
func ImmI(w uint32) int32 { return int32(w) >> 20 }

// ImmS extracts the S-type immediate.
func ImmS(w uint32) int32 { return int32(w)>>25<<5 | int32(w>>7&0x1f) }

// ImmB extracts the B-type immediate (a byte offset).
func ImmB(w uint32) int32 {
	return int32(w)>>31<<12 | int32(w>>7&1)<<11 | int32(w>>25&0x3f)<<5 | int32(w>>8&0xf)<<1
}

// ImmU extracts the U-type immediate (already shifted into bits 31..12).
func ImmU(w uint32) int32 { return int32(w & 0xfffff000) }

// ImmJ extracts the J-type immediate (a byte offset).
func ImmJ(w uint32) int32 {
	return int32(w)>>31<<20 | int32(w>>12&0xff)<<12 | int32(w>>20&1)<<11 | int32(w>>21&0x3ff)<<1
}

// Inst is a decoded instruction.
type Inst struct {
	Mn   Mnemonic
	Rd   int
	Rs1  int
	Rs2  int
	Imm  int32  // format immediate (shamt for shift-immediates)
	CSR  uint16 // CSR address for Zicsr instructions
	Zimm uint32 // zero-extended rs1 field for CSR*I instructions
	Raw  uint32
}

// Decode decodes one RV32I+Zicsr instruction word. Unrecognised encodings
// decode to Mn == InsInvalid (with Raw preserved).
func Decode(w uint32) Inst {
	in := Inst{
		Rd:  int(w >> 7 & 0x1f),
		Rs1: int(w >> 15 & 0x1f),
		Rs2: int(w >> 20 & 0x1f),
		Raw: w,
	}
	f3 := w >> 12 & 7
	f7 := w >> 25

	switch w & 0x7f {
	case OpLUI:
		in.Mn, in.Imm = InsLUI, ImmU(w)
	case OpAUIPC:
		in.Mn, in.Imm = InsAUIPC, ImmU(w)
	case OpJAL:
		in.Mn, in.Imm = InsJAL, ImmJ(w)
	case OpJALR:
		if f3 == 0 {
			in.Mn, in.Imm = InsJALR, ImmI(w)
		}
	case OpBranch:
		in.Imm = ImmB(w)
		switch f3 {
		case F3BEQ:
			in.Mn = InsBEQ
		case F3BNE:
			in.Mn = InsBNE
		case F3BLT:
			in.Mn = InsBLT
		case F3BGE:
			in.Mn = InsBGE
		case F3BLTU:
			in.Mn = InsBLTU
		case F3BGEU:
			in.Mn = InsBGEU
		}
	case OpLoad:
		in.Imm = ImmI(w)
		switch f3 {
		case F3LB:
			in.Mn = InsLB
		case F3LH:
			in.Mn = InsLH
		case F3LW:
			in.Mn = InsLW
		case F3LBU:
			in.Mn = InsLBU
		case F3LHU:
			in.Mn = InsLHU
		}
	case OpStore:
		in.Imm = ImmS(w)
		switch f3 {
		case F3SB:
			in.Mn = InsSB
		case F3SH:
			in.Mn = InsSH
		case F3SW:
			in.Mn = InsSW
		}
	case OpImm:
		in.Imm = ImmI(w)
		switch f3 {
		case F3ADDSUB:
			in.Mn = InsADDI
		case F3SLT:
			in.Mn = InsSLTI
		case F3SLTU:
			in.Mn = InsSLTIU
		case F3XOR:
			in.Mn = InsXORI
		case F3OR:
			in.Mn = InsORI
		case F3AND:
			in.Mn = InsANDI
		case F3SLL:
			if f7 == 0 {
				in.Mn, in.Imm = InsSLLI, int32(in.Rs2)
			}
		case F3SRL:
			switch f7 {
			case 0:
				in.Mn, in.Imm = InsSRLI, int32(in.Rs2)
			case 0x20:
				in.Mn, in.Imm = InsSRAI, int32(in.Rs2)
			}
		}
	case OpReg:
		switch {
		case f7 == 0:
			switch f3 {
			case F3ADDSUB:
				in.Mn = InsADD
			case F3SLL:
				in.Mn = InsSLL
			case F3SLT:
				in.Mn = InsSLT
			case F3SLTU:
				in.Mn = InsSLTU
			case F3XOR:
				in.Mn = InsXOR
			case F3SRL:
				in.Mn = InsSRL
			case F3OR:
				in.Mn = InsOR
			case F3AND:
				in.Mn = InsAND
			}
		case f7 == 0x20:
			switch f3 {
			case F3ADDSUB:
				in.Mn = InsSUB
			case F3SRL:
				in.Mn = InsSRA
			}
		}
	case OpMisc:
		if f3 == 0 {
			in.Mn, in.Imm = InsFENCE, ImmI(w)
		}
	case OpSystem:
		in.CSR = uint16(w >> 20)
		in.Zimm = w >> 15 & 0x1f
		switch f3 {
		case F3PRIV:
			if in.Rd == 0 && in.Rs1 == 0 {
				switch w >> 20 {
				case F12ECALL:
					in.Mn = InsECALL
				case F12EBREAK:
					in.Mn = InsEBREAK
				case F12WFI:
					in.Mn = InsWFI
				case F12MRET:
					in.Mn = InsMRET
				}
			}
		case F3CSRRW:
			in.Mn = InsCSRRW
		case F3CSRRS:
			in.Mn = InsCSRRS
		case F3CSRRC:
			in.Mn = InsCSRRC
		case F3CSRRWI:
			in.Mn = InsCSRRWI
		case F3CSRRSI:
			in.Mn = InsCSRRSI
		case F3CSRRCI:
			in.Mn = InsCSRRCI
		}
	}
	return in
}
