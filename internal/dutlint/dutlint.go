// Package dutlint is a static analyzer over the symbolic transition
// relation of a device under test: the EDA-style "lint before prove" stage
// that catches structural defects in a translated core in seconds, before
// any solver-hours are spent on full co-simulation campaigns.
//
// The analyzer drives one instruction slot of any core implementing the
// small DUT interface with fully-free inputs (a fresh symbolic instruction
// word per fetch, free data-bus read words, symbolic initial registers and
// CSRs), exploring every feasible path of the cycle function. Because
// terms are hash-consed and input names are deterministic, the per-path
// term DAGs intern into one shared DAG; dutlint then analyzes that DAG
// structurally — no solver involvement — for:
//
//   - per-state-bit and per-output cone of influence (which input bits
//     each observable bit depends on);
//   - dead logic: bit-vector terms the cycle function built that are in no
//     cone of any architectural state, RVFI port, bus output, or path
//     constraint;
//   - constant-valued signals the term constructors did not fold (sampled
//     under multiple deterministic environments; fold candidates for
//     smt/build.go);
//   - unconstrained/floating inputs: free variables that never reach a
//     state update, output, or path constraint;
//   - width/extract/ITE discipline on the DAG plus interface-contract
//     widths, and rtl.Strobe protocol checks on the DBus requests.
//
// An optional mode SAT-probes whether each decode mux arm is
// selectable under the walk order, cross-checked against the purely
// bitwise overlap answer from internal/decodecheck.
//
// smt builder panics (*smt.BuildError) raised by a defective cycle
// function are recovered at the path boundary and converted into
// build-panic findings instead of crashing the analyzer.
package dutlint

import (
	"fmt"
	"sort"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/obs"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// RootClass labels the kind of observable a Root is.
type RootClass string

// Root classes.
const (
	ClassState RootClass = "state" // architectural state next-value (PC, registers)
	ClassCSR   RootClass = "csr"   // CSR next-value
	ClassRVFI  RootClass = "rvfi"  // RVFI retirement port field
	ClassBus   RootClass = "bus"   // data-bus output
)

// Root is one labeled observable of the cycle function on one path.
type Root struct {
	Class RootClass
	Name  string
	Term  *smt.Term
}

// BusAccess is one DBus transaction the core emitted on one path.
type BusAccess struct {
	Write  bool
	Addr   *smt.Term
	Strobe rtl.Strobe
	WData  *smt.Term // nil on loads
}

// CycleResult is what a DUT's Run returns for one explored path.
type CycleResult struct {
	Roots []Root
	Bus   []BusAccess
}

// AddRoot appends a labeled observable, ignoring nil terms (absent fields).
func (r *CycleResult) AddRoot(class RootClass, name string, t *smt.Term) {
	if t == nil {
		return
	}
	r.Roots = append(r.Roots, Root{Class: class, Name: name, Term: t})
}

// DUT is the adapter interface a core must implement to be lintable.
type DUT interface {
	// Name identifies the core in reports and allowlists.
	Name() string
	// Run drives one instruction through a fresh core instance with
	// fully-free inputs, returning the observable roots of the resulting
	// transition relation for the current path. It is invoked once per
	// exploration path under the engine's replay discipline.
	Run(eng *core.Engine) (*CycleResult, error)
	// DecodeArms returns the priority decode table, in walk order, for the SAT-probe
	// reachability mode and its decodecheck cross-check.
	DecodeArms() []rtl.Row
}

// Options configure one lint run.
type Options struct {
	// MaxPaths bounds the exploration; 0 means exhaustive. A truncated
	// exploration downgrades the analyses that need full path coverage
	// (dead logic, unconstrained inputs, constant candidates) and reports
	// a partial-exploration finding instead of unsound results.
	MaxPaths int
	// MaxTime bounds the exploration wall clock; 0 means unlimited.
	MaxTime time.Duration
	// NoQueryCache is the usual ablation toggle, passed through to the
	// explorer.
	NoQueryCache bool
	// Obs, when non-nil, records exploration spans and counters.
	Obs *obs.Recorder
	// SATProbe enables the decode-arm reachability mode.
	SATProbe bool
	// Samples is the number of deterministic sample environments for the
	// constant-candidate analysis (default 8).
	Samples int
}

// Finding classes, in report order.
const (
	FindBuildPanic    = "build-panic"   // smt builder discipline violation in the cycle function
	FindDriveError    = "drive-error"   // the drive loop could not complete a path
	FindWidth         = "width"         // DAG or interface-contract width violation
	FindStrobe        = "strobe"        // illegal rtl.Strobe pattern on an enabled request
	FindBusAlign      = "bus-align"     // non-word-aligned or non-constant request address
	FindDeadLogic     = "dead-logic"    // term in no observable cone
	FindUnconstrained = "unconstrained" // free input in no cone and no path constraint
	FindConstCand     = "const-cand"    // unfolded constant-valued signal (fold candidate for smt/build.go)
	FindUnreachArm    = "unreach-arm"   // decode arm never selectable (SAT probe)
	FindProbeXCheck   = "probe-xcheck"  // SAT probe and decodecheck overlap answer disagree
	FindPartial       = "partial"       // exploration truncated; coverage analyses skipped
)

// Finding is one reported defect or notable condition.
type Finding struct {
	Class   string // one of the Find* classes
	Name    string // stable identifier within the class (allowlist key)
	Detail  string // human-readable description
	Allowed bool   // matched by the allowlist
}

func (f Finding) String() string {
	tag := ""
	if f.Allowed {
		tag = " (allowed)"
	}
	return fmt.Sprintf("%s %s%s: %s", f.Class, f.Name, tag, f.Detail)
}

// BitRange is a run of adjacent root bits with identical input support.
type BitRange struct {
	Hi, Lo int
	Deps   []string // input slices "var[h:l]", sorted by variable name
}

// COIEntry is the cone of influence of one named observable.
type COIEntry struct {
	Class  RootClass
	Name   string
	Width  int      // 0 for Boolean observables
	Inputs []string // sorted names of all input variables in the cone
	Bits   []BitRange
}

// Report is the result of linting one DUT.
type Report struct {
	Core      string
	Paths     int
	Exhausted bool
	Terms     int // terms the cycle function interned (beyond the baseline)
	Inputs    int // free input variables
	Arms      int // decode arms SAT-probed (0 when the probe is off)
	COI       []COIEntry
	Findings  []Finding

	// Wall-clock split, excluded from the JSON contract: DriveElapsed is
	// the symbolic exploration, AnalyzeElapsed the pure DAG analysis.
	DriveElapsed   time.Duration
	AnalyzeElapsed time.Duration
}

// Failed returns the findings not covered by the allowlist.
func (r *Report) Failed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Allowed {
			out = append(out, f)
		}
	}
	return out
}

// Clean reports whether the lint passed modulo the allowlist.
func (r *Report) Clean() bool { return len(r.Failed()) == 0 }

// Run lints one DUT: drive the symbolic cycle, analyze the DAG, probe the
// decode table when asked, then apply the allowlist.
func Run(dut DUT, opts Options, allow *Allowlist) *Report {
	rep := &Report{Core: dut.Name()}

	col := newCollector()
	driveStart := time.Now()
	xrep := drive(dut, opts, col)
	rep.DriveElapsed = time.Since(driveStart)
	rep.Paths = xrep.Stats.Paths
	rep.Exhausted = xrep.Exhausted

	analyzeStart := time.Now()
	analyze(rep, col, opts)
	if opts.SATProbe {
		probeArms(rep, dut)
	}
	rep.AnalyzeElapsed = time.Since(analyzeStart)

	sortFindings(rep.Findings)
	if allow != nil {
		for i := range rep.Findings {
			rep.Findings[i].Allowed = allow.Allows(rep.Core, rep.Findings[i])
		}
	}
	return rep
}

// classOrder ranks finding classes for stable report ordering.
var classOrder = map[string]int{
	FindBuildPanic: 0, FindDriveError: 1, FindWidth: 2, FindStrobe: 3,
	FindBusAlign: 4, FindDeadLogic: 5, FindUnconstrained: 6, FindConstCand: 7,
	FindUnreachArm: 8, FindProbeXCheck: 9, FindPartial: 10,
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Class != fs[j].Class {
			return classOrder[fs[i].Class] < classOrder[fs[j].Class]
		}
		if fs[i].Name != fs[j].Name {
			return fs[i].Name < fs[j].Name
		}
		return fs[i].Detail < fs[j].Detail
	})
}
