package riscv

import "fmt"

// Machine-mode and unprivileged CSR addresses (RV32, privileged spec v1.11 —
// the generation MicroRV32 and the RISC-V VP target).
const (
	CSRMStatus    = 0x300
	CSRMIsa       = 0x301
	CSRMEdeleg    = 0x302
	CSRMIdeleg    = 0x303
	CSRMIe        = 0x304
	CSRMTvec      = 0x305
	CSRMCounteren = 0x306
	CSRMScratch   = 0x340
	CSRMEpc       = 0x341
	CSRMCause     = 0x342
	CSRMTval      = 0x343
	CSRMIp        = 0x344

	CSRMCycle    = 0xB00
	CSRMInstret  = 0xB02
	CSRMCycleH   = 0xB80
	CSRMInstretH = 0xB82

	// mhpmcounter3..31 at 0xB03..0xB1F; mhpmcounter3h..31h at 0xB83..0xB9F;
	// mhpmevent3..31 at 0x323..0x33F.
	CSRMHpmCounterBase  = 0xB00
	CSRMHpmCounterHBase = 0xB80
	CSRMHpmEventBase    = 0x320

	CSRCycle    = 0xC00
	CSRTime     = 0xC01
	CSRInstret  = 0xC02
	CSRCycleH   = 0xC80
	CSRTimeH    = 0xC81
	CSRInstretH = 0xC82

	CSRMVendorID = 0xF11
	CSRMArchID   = 0xF12
	CSRMImpID    = 0xF13
	CSRMHartID   = 0xF14
)

// MisaRV32I is the misa value of an RV32 core with only the I extension.
const MisaRV32I = 0x40000100

// CSRReadOnly reports whether the CSR address is architecturally read-only
// (top two address bits both set).
func CSRReadOnly(addr uint16) bool { return addr>>10&3 == 3 }

var csrNames = map[uint16]string{
	CSRMStatus: "mstatus", CSRMIsa: "misa", CSRMEdeleg: "medeleg", CSRMIdeleg: "mideleg",
	CSRMIe: "mie", CSRMTvec: "mtvec", CSRMCounteren: "mcounteren", CSRMScratch: "mscratch",
	CSRMEpc: "mepc", CSRMCause: "mcause", CSRMTval: "mtval", CSRMIp: "mip",
	CSRMCycle: "mcycle", CSRMInstret: "minstret", CSRMCycleH: "mcycleh", CSRMInstretH: "minstreth",
	CSRCycle: "cycle", CSRTime: "time", CSRInstret: "instret",
	CSRCycleH: "cycleh", CSRTimeH: "timeh", CSRInstretH: "instreth",
	CSRMVendorID: "mvendorid", CSRMArchID: "marchid", CSRMImpID: "mimpid", CSRMHartID: "mhartid",
}

// CSRName returns the architectural name of a CSR address, synthesising
// hpm counter/event names and falling back to a hex form.
func CSRName(addr uint16) string {
	if n, ok := csrNames[addr]; ok {
		return n
	}
	switch {
	case addr >= CSRMHpmCounterBase+3 && addr <= CSRMHpmCounterBase+31:
		return fmt.Sprintf("mhpmcounter%d", addr-CSRMHpmCounterBase)
	case addr >= CSRMHpmCounterHBase+3 && addr <= CSRMHpmCounterHBase+31:
		return fmt.Sprintf("mhpmcounter%dh", addr-CSRMHpmCounterHBase)
	case addr >= CSRMHpmEventBase+3 && addr <= CSRMHpmEventBase+31:
		return fmt.Sprintf("mhpmevent%d", addr-CSRMHpmEventBase)
	case addr >= CSRCycle+3 && addr <= CSRCycle+31:
		return fmt.Sprintf("hpmcounter%d", addr-CSRCycle)
	case addr >= CSRCycleH+3 && addr <= CSRCycleH+31:
		return fmt.Sprintf("hpmcounter%dh", addr-CSRCycleH)
	}
	return fmt.Sprintf("0x%03x", addr)
}
