// Package rtl holds what the two RTL cores (microrv32 and pipecore) share.
//
// The bus-level types: the IBus fetch handshake and the strobe-based DBus
// (the write-strobe protocol used by AXI, Wishbone, and the PicoRV32 native
// interface, and by the MicroRV32 memory interface the paper describes). The
// co-simulation main loop speaks these protocols to connect a core to the
// symbolic memories.
//
// The combinational RV32 datapath: the micro-op enum and decode-table rows
// (DecodeTable, Decoder), the sliced register file (RegFile), and pure
// result functions for the ALU, branches, JAL and the load unit. Each of the
// injected faults E0–E9 has exactly one hook site here: E0–E2 in
// DecodeTable, E3 in ALUImm, E4 in ALUReg, E5 in JALTarget, E6 in
// BranchCond, E7 in LoadAddr, E8 and E9 in LoadValue. A core keeps its own
// control, operand reads and register-choice order, and calls these in a
// fixed order, so the terms a path builds are the same on every replay.
package rtl

import "symriscv/internal/smt"

// IBusRequest is the instruction-fetch side driven by the core.
type IBusRequest struct {
	FetchEnable bool
	Address     *smt.Term // 32-bit fetch address
}

// IBusResponse is the instruction-fetch side driven by the memory.
type IBusResponse struct {
	InstructionReady bool
	Instruction      *smt.Term // 32-bit instruction word
}

// DBusRequest is the data-bus side driven by the core. A request is active
// for exactly one cycle when Enable is set; Write distinguishes stores from
// loads; WrStrobe selects the byte lanes within the addressed word.
type DBusRequest struct {
	Enable    bool
	Write     bool
	Address   *smt.Term // 32-bit byte address (word-aligned access, lanes via strobe)
	WrStrobe  Strobe
	WriteData *smt.Term // 32-bit, strobe-aligned store data
}

// DBusResponse is the data-bus side driven by the memory.
type DBusResponse struct {
	DataReady bool
	ReadData  *smt.Term // 32-bit word containing the requested lanes
}

// Strobe selects byte lanes of a 32-bit bus word (bit i = byte i, little
// endian).
type Strobe uint8

// The strobe patterns the protocol permits.
const (
	StrobeByte0 Strobe = 0b0001
	StrobeByte1 Strobe = 0b0010
	StrobeByte2 Strobe = 0b0100
	StrobeByte3 Strobe = 0b1000
	StrobeHalf0 Strobe = 0b0011
	StrobeHalf1 Strobe = 0b1100
	StrobeWord  Strobe = 0b1111
)

// Valid reports whether the strobe is one of the protocol's legal patterns.
func (s Strobe) Valid() bool {
	switch s {
	case StrobeByte0, StrobeByte1, StrobeByte2, StrobeByte3,
		StrobeHalf0, StrobeHalf1, StrobeWord:
		return true
	}
	return false
}

// Bytes returns the number of selected byte lanes.
func (s Strobe) Bytes() int {
	n := 0
	for i := 0; i < 4; i++ {
		if s>>uint(i)&1 == 1 {
			n++
		}
	}
	return n
}

// ByteStrobe returns the strobe selecting the single byte lane addressed by
// the low two address bits.
func ByteStrobe(addrLow2 uint32) Strobe { return Strobe(1) << (addrLow2 & 3) }

// HalfStrobe returns the strobe selecting the half-word lane addressed by
// address bit 1. Misaligned half-word accesses (bit 0 set) are the caller's
// concern; the strobe protocol itself cannot express them, which is exactly
// why a core that "fully supports misaligned accesses" must split them.
func HalfStrobe(addrLow2 uint32) Strobe {
	if addrLow2&2 != 0 {
		return StrobeHalf1
	}
	return StrobeHalf0
}
