package cosim

import (
	"fmt"

	"symriscv/internal/core"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// SharedInit is the common pool of initial symbolic data-memory bytes. The
// RTL-side and ISS-side memories are separate (stores do not cross), but
// they draw their initial contents from this pool so both sides start
// identical — preventing false mismatches (§IV-C.2).
type SharedInit struct {
	eng      *core.Engine
	bytes    map[uint32]*smt.Term
	pin      smt.MapEnv              // optional replay pins, keyed by variable name
	concrete func(addr uint32) uint8 // fuzzing mode: concrete initial bytes
}

// NewSharedInit returns an empty initial-byte pool.
func NewSharedInit(eng *core.Engine) *SharedInit {
	return &SharedInit{eng: eng, bytes: make(map[uint32]*smt.Term)}
}

func (s *SharedInit) byteAt(addr uint32) *smt.Term {
	if b, ok := s.bytes[addr]; ok {
		return b
	}
	if s.concrete != nil {
		b := s.eng.Context().BV(8, uint64(s.concrete(addr)))
		s.bytes[addr] = b
		return b
	}
	name := fmt.Sprintf("dmem_%08x", addr)
	b := s.eng.MakeSymbolic(name, 8)
	if val, ok := s.pin[name]; ok {
		ctx := s.eng.Context()
		s.eng.Assume(ctx.Eq(b, ctx.BV(8, val)))
	}
	s.bytes[addr] = b
	return b
}

// SymbolicDMem is one side's symbolic data memory: byte-granular, lazily
// initialised from the shared pool, with a private overlay of stored bytes.
type SymbolicDMem struct {
	ctx     *smt.Context
	init    *SharedInit
	overlay map[uint32]*smt.Term

	// Write log for diagnostics/tests: addresses stored to, in order.
	writes []uint32
}

// NewSymbolicDMem returns a memory view over the shared initial bytes.
func NewSymbolicDMem(ctx *smt.Context, init *SharedInit) *SymbolicDMem {
	return &SymbolicDMem{ctx: ctx, init: init, overlay: make(map[uint32]*smt.Term)}
}

func (m *SymbolicDMem) byteAt(addr uint32) *smt.Term {
	if b, ok := m.overlay[addr]; ok {
		return b
	}
	return m.init.byteAt(addr)
}

func (m *SymbolicDMem) setByte(addr uint32, b *smt.Term) {
	m.overlay[addr] = b
	m.writes = append(m.writes, addr)
}

// LoadByte returns the 8-bit raw value at addr.
func (m *SymbolicDMem) LoadByte(addr uint32) *smt.Term { return m.byteAt(addr) }

// LoadHalf returns the 16-bit raw value at addr (little endian).
func (m *SymbolicDMem) LoadHalf(addr uint32) *smt.Term {
	return m.ctx.Concat(m.byteAt(addr+1), m.byteAt(addr))
}

// LoadWord returns the 32-bit value at addr (little endian).
func (m *SymbolicDMem) LoadWord(addr uint32) *smt.Term {
	lo := m.ctx.Concat(m.byteAt(addr+1), m.byteAt(addr))
	hi := m.ctx.Concat(m.byteAt(addr+3), m.byteAt(addr+2))
	return m.ctx.Concat(hi, lo)
}

// StoreByte writes an 8-bit value at addr.
func (m *SymbolicDMem) StoreByte(addr uint32, v *smt.Term) { m.setByte(addr, v) }

// StoreHalf writes a 16-bit value at addr (little endian).
func (m *SymbolicDMem) StoreHalf(addr uint32, v *smt.Term) {
	m.setByte(addr, m.ctx.Extract(v, 7, 0))
	m.setByte(addr+1, m.ctx.Extract(v, 15, 8))
}

// StoreWord writes a 32-bit value at addr (little endian).
func (m *SymbolicDMem) StoreWord(addr uint32, v *smt.Term) {
	for i := uint32(0); i < 4; i++ {
		m.setByte(addr+i, m.ctx.Extract(v, int(8*i+7), int(8*i)))
	}
}

// WriteCount returns the number of byte stores performed (diagnostics).
func (m *SymbolicDMem) WriteCount() int { return len(m.writes) }

// ServeDBus services one strobe-based bus request against this memory (the
// co-simulation main's DBus redirection, §IV-C.2). Read requests return the
// full aligned bus word; the core extracts and extends its lanes itself.
func (m *SymbolicDMem) ServeDBus(req rtl.DBusRequest) rtl.DBusResponse {
	if !req.Enable {
		return rtl.DBusResponse{}
	}
	if !req.Address.IsConst() {
		panic("cosim: DBus address must be concrete on each path")
	}
	base := uint32(req.Address.ConstVal()) &^ 3
	if req.Write {
		for lane := uint32(0); lane < 4; lane++ {
			if req.WrStrobe>>lane&1 == 1 {
				m.setByte(base+lane, m.ctx.Extract(req.WriteData, int(8*lane+7), int(8*lane)))
			}
		}
		return rtl.DBusResponse{DataReady: true, ReadData: m.ctx.BV(32, 0)}
	}
	return rtl.DBusResponse{DataReady: true, ReadData: m.LoadWord(base)}
}
