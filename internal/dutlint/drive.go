package dutlint

import (
	"fmt"

	"symriscv/internal/core"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

// rootAgg merges one named observable across paths: hash-consing interns
// identical per-path computations to the same *smt.Term, so the set of
// distinct terms stays near the number of decode arms, not paths.
type rootAgg struct {
	class RootClass
	terms map[*smt.Term]struct{}
	order []*smt.Term // insertion order, for deterministic iteration
}

// busKey identifies a distinct bus transaction shape for deduplication.
type busKey struct {
	write       bool
	addr, wdata uint32 // term IDs (0 when nil)
	strobe      rtl.Strobe
}

// collector accumulates observables across every explored path. The
// explorer is sequential, so no locking is needed.
type collector struct {
	ctx      *smt.Context
	baseline int // terms interned before the first path ran

	roots     map[string]*rootAgg
	rootNames []string // insertion order
	pcs       map[*smt.Term]struct{}
	pcOrder   []*smt.Term
	inputs    map[*smt.Term]struct{}
	inOrder   []*smt.Term
	bus       []BusAccess
	busSeen   map[busKey]struct{}

	findings   []Finding
	findSeen   map[string]struct{} // class+name+detail dedup across paths
	driveFails int
}

func newCollector() *collector {
	return &collector{
		roots:    make(map[string]*rootAgg),
		pcs:      make(map[*smt.Term]struct{}),
		inputs:   make(map[*smt.Term]struct{}),
		busSeen:  make(map[busKey]struct{}),
		findSeen: make(map[string]struct{}),
	}
}

func (col *collector) addFinding(class, name, detail string) {
	key := class + "\x00" + name + "\x00" + detail
	if _, ok := col.findSeen[key]; ok {
		return
	}
	col.findSeen[key] = struct{}{}
	col.findings = append(col.findings, Finding{Class: class, Name: name, Detail: detail})
}

func (col *collector) addRoot(r Root) {
	agg, ok := col.roots[r.Name]
	if !ok {
		agg = &rootAgg{class: r.Class, terms: make(map[*smt.Term]struct{})}
		col.roots[r.Name] = agg
		col.rootNames = append(col.rootNames, r.Name)
	}
	if _, ok := agg.terms[r.Term]; !ok {
		agg.terms[r.Term] = struct{}{}
		agg.order = append(agg.order, r.Term)
	}
}

func (col *collector) addBus(b BusAccess) {
	k := busKey{write: b.Write, strobe: b.Strobe}
	if b.Addr != nil {
		k.addr = b.Addr.ID()
	}
	if b.WData != nil {
		k.wdata = b.WData.ID()
	}
	if _, ok := col.busSeen[k]; ok {
		return
	}
	col.busSeen[k] = struct{}{}
	col.bus = append(col.bus, b)
}

// drive explores every feasible path of the DUT's cycle function, feeding
// the collector. smt builder panics are converted into build-panic findings
// at the path boundary; every other panic (including the engine's internal
// abort signal) passes through untouched.
func drive(dut DUT, opts Options, col *collector) *core.Report {
	run := func(eng *core.Engine) error {
		if col.ctx == nil {
			col.ctx = eng.Context()
			col.baseline = col.ctx.NumTerms()
		}
		defer func() {
			// Inputs and path constraints are collected even when the
			// cycle function dies mid-path: a constrained term is not
			// dead, however the path ended.
			for _, v := range eng.SymbolicInputs() {
				if _, ok := col.inputs[v]; !ok {
					col.inputs[v] = struct{}{}
					col.inOrder = append(col.inOrder, v)
				}
			}
			for _, pc := range eng.PathConstraints() {
				if _, ok := col.pcs[pc]; !ok {
					col.pcs[pc] = struct{}{}
					col.pcOrder = append(col.pcOrder, pc)
				}
			}
			if r := recover(); r != nil {
				be, ok := r.(*smt.BuildError)
				if !ok {
					panic(r)
				}
				col.addFinding(FindBuildPanic, be.Op, be.Error())
			}
		}()
		res, err := dut.Run(eng)
		if err != nil {
			col.driveFails++
			col.addFinding(FindDriveError, dut.Name(), err.Error())
			return nil
		}
		for _, r := range res.Roots {
			col.addRoot(r)
		}
		for _, b := range res.Bus {
			col.addBus(b)
		}
		return nil
	}

	x := core.NewExplorer(run)
	return x.Explore(core.Options{
		MaxPaths:     opts.MaxPaths,
		MaxTime:      opts.MaxTime,
		NoQueryCache: opts.NoQueryCache,
		Obs:          opts.Obs,
	})
}

// stepCore is the cycle-level surface both cores share; the adapters'
// common drive loop runs against it.
type stepCore interface {
	Step(rtl.IBusResponse, rtl.DBusResponse) (rtl.IBusRequest, rtl.DBusRequest)
	Retirement() *rvfi.Retirement
}

// driveOne steps the core until the first retirement, answering every
// fetch with a fresh free symbolic instruction word and every data-bus
// request with a free symbolic read word. It returns the retirement
// record and the DBus requests the core emitted. The final cycle's bus
// requests are recorded but not serviced (the slot is over).
func driveOne(eng *core.Engine, c stepCore, cycleLimit int) (*rvfi.Retirement, []BusAccess, error) {
	var ib rtl.IBusResponse
	var db rtl.DBusResponse
	var bus []BusAccess
	nrd := 0
	for cycle := 0; cycle < cycleLimit; cycle++ {
		ibReq, dbReq := c.Step(ib, db)
		ib, db = rtl.IBusResponse{}, rtl.DBusResponse{}
		if dbReq.Enable {
			bus = append(bus, BusAccess{
				Write:  dbReq.Write,
				Addr:   dbReq.Address,
				Strobe: dbReq.WrStrobe,
				WData:  dbReq.WriteData,
			})
		}
		if ret := c.Retirement(); ret.Valid {
			r := *ret
			return &r, bus, nil
		}
		if ibReq.FetchEnable {
			if ibReq.Address == nil || !ibReq.Address.IsConst() {
				return nil, bus, fmt.Errorf("IBus fetch address is not concrete")
			}
			addr := uint32(ibReq.Address.ConstVal())
			w := eng.MakeSymbolic(fmt.Sprintf("insn_%08x", addr), 32)
			ib = rtl.IBusResponse{InstructionReady: true, Instruction: w}
		}
		if dbReq.Enable {
			rd := eng.MakeSymbolic(fmt.Sprintf("dbus_rdata_%d", nrd), 32)
			nrd++
			db = rtl.DBusResponse{DataReady: true, ReadData: rd}
		}
	}
	return nil, bus, fmt.Errorf("no retirement within %d cycles", cycleLimit)
}
