package dutlint

import (
	"fmt"
	"sort"

	"symriscv/internal/smt"
)

// maxPerClass bounds dead-logic and const-candidate finding counts so a
// badly broken DUT produces a readable report; the truncation is announced
// in the last finding of the class.
const maxPerClass = 32

// contractWidth is the interface width every root, bus address, and bus
// data term must have: the cores are RV32, their buses 32-bit.
const contractWidth = 32

// analyze runs every pure-DAG analysis over the collected observables and
// appends findings and COI entries to the report.
func analyze(rep *Report, col *collector, opts Options) {
	rep.Findings = append(rep.Findings, col.findings...)
	if col.ctx == nil {
		// No path ran at all (MaxPaths 0 cannot cause this; a panic on the
		// very first term would). Nothing to analyze.
		return
	}
	rep.Terms = col.ctx.NumTerms() - col.baseline
	rep.Inputs = len(col.inOrder)

	// Cone of influence per observable, merged across path variants.
	coi := newCOIAnalyzer()
	for _, name := range sortedRootNames(col) {
		rep.COI = append(rep.COI, coiEntry(coi, name, col.roots[name]))
	}

	checkContracts(rep, col)

	// The coverage analyses (dead logic, unconstrained inputs, constant
	// candidates) are sound only over the full path tree: a truncated
	// exploration leaves logic unexplored, not dead.
	if !rep.Exhausted {
		rep.Findings = append(rep.Findings, Finding{
			Class: FindPartial, Name: rep.Core,
			Detail: fmt.Sprintf("exploration truncated after %d paths; dead-logic/unconstrained/const-cand analyses skipped", rep.Paths),
		})
		return
	}

	live := liveTerms(col)
	checkDeadLogic(rep, col, live)
	checkUnconstrained(rep, col, coi)
	checkConstCandidates(rep, col, live, opts)
}

func sortedRootNames(col *collector) []string {
	names := append([]string(nil), col.rootNames...)
	sort.Slice(names, func(i, j int) bool {
		a, b := col.roots[names[i]], col.roots[names[j]]
		if a.class != b.class {
			return classRank(a.class) < classRank(b.class)
		}
		return names[i] < names[j]
	})
	return names
}

func classRank(c RootClass) int {
	switch c {
	case ClassState:
		return 0
	case ClassCSR:
		return 1
	case ClassRVFI:
		return 2
	case ClassBus:
		return 3
	}
	return 4
}

// liveTerms marks everything reachable from any observable: root terms,
// path constraints, and bus outputs. Input variables are leaves, so they
// add nothing to reachability on their own.
func liveTerms(col *collector) map[*smt.Term]bool {
	var roots []*smt.Term
	for _, name := range col.rootNames {
		roots = append(roots, col.roots[name].order...)
	}
	roots = append(roots, col.pcOrder...)
	for _, b := range col.bus {
		roots = append(roots, b.Addr, b.WData)
	}
	return reachable(roots)
}

// checkContracts audits interface widths, DAG construction discipline, and
// the bus protocol: every root and bus term must be 32 bits wide; extract
// bounds, concat widths, extension targets, and ite arms must be
// internally consistent (the builders enforce this, so a hit means the
// DAG was corrupted); enabled requests must carry a legal non-zero strobe,
// a concrete word-aligned address, and store data exactly on writes.
func checkContracts(rep *Report, col *collector) {
	for _, name := range col.rootNames {
		agg := col.roots[name]
		for _, t := range agg.order {
			if t.Width() != contractWidth {
				rep.Findings = append(rep.Findings, Finding{
					Class: FindWidth, Name: name,
					Detail: fmt.Sprintf("%s root %s has width %d, contract requires %d", agg.class, name, t.Width(), contractWidth),
				})
			}
		}
	}
	for i, b := range col.bus {
		name := fmt.Sprintf("dbus#%d", i)
		dir := "load"
		if b.Write {
			dir = "store"
		}
		if b.Addr == nil {
			rep.Findings = append(rep.Findings, Finding{Class: FindBusAlign, Name: name,
				Detail: dir + " request without an address"})
		} else {
			if b.Addr.Width() != contractWidth {
				rep.Findings = append(rep.Findings, Finding{Class: FindWidth, Name: name,
					Detail: fmt.Sprintf("%s address has width %d, bus is %d-bit", dir, b.Addr.Width(), contractWidth)})
			}
			if !b.Addr.IsConst() {
				rep.Findings = append(rep.Findings, Finding{Class: FindBusAlign, Name: name,
					Detail: dir + " address is symbolic; the protocol requires a concretized word address"})
			} else if b.Addr.ConstVal()%4 != 0 {
				rep.Findings = append(rep.Findings, Finding{Class: FindBusAlign, Name: name,
					Detail: fmt.Sprintf("%s address %#x is not word-aligned (lanes must be selected by the strobe)", dir, b.Addr.ConstVal())})
			}
		}
		if b.Write {
			if !b.Strobe.Valid() {
				rep.Findings = append(rep.Findings, Finding{Class: FindStrobe, Name: name,
					Detail: fmt.Sprintf("store strobe %04b is not a legal lane pattern", b.Strobe)})
			}
			if b.WData == nil {
				rep.Findings = append(rep.Findings, Finding{Class: FindWidth, Name: name,
					Detail: "store request without write data"})
			} else if b.WData.Width() != contractWidth {
				rep.Findings = append(rep.Findings, Finding{Class: FindWidth, Name: name,
					Detail: fmt.Sprintf("store data has width %d, bus is %d-bit", b.WData.Width(), contractWidth)})
			}
		} else if b.Strobe != 0 && !b.Strobe.Valid() {
			rep.Findings = append(rep.Findings, Finding{Class: FindStrobe, Name: name,
				Detail: fmt.Sprintf("load strobe %04b is not a legal lane pattern", b.Strobe)})
		}
	}
	if n := auditDAG(col); n > 0 {
		rep.Findings = append(rep.Findings, Finding{Class: FindWidth, Name: "dag",
			Detail: fmt.Sprintf("%d structurally inconsistent terms in the DAG", n)})
	}
}

// auditDAG re-validates the width discipline of every term the cycle
// function interned. The builders enforce these invariants at construction,
// so this is a cheap defense-in-depth sweep that should never fire.
func auditDAG(col *collector) int {
	bad := 0
	for id := col.baseline + 1; id <= col.ctx.NumTerms(); id++ {
		t := col.ctx.TermByID(uint32(id))
		switch t.Kind() {
		case smt.KAdd, smt.KSub, smt.KMul, smt.KUDiv, smt.KURem,
			smt.KAnd, smt.KOr, smt.KXor, smt.KShl, smt.KLshr, smt.KAshr:
			if t.Arg(0).Width() != t.Width() || t.Arg(1).Width() != t.Width() || t.Width() == 0 {
				bad++
			}
		case smt.KConcat:
			if t.Arg(0).Width()+t.Arg(1).Width() != t.Width() {
				bad++
			}
		case smt.KExtract:
			hi, lo := t.ExtractBounds()
			if lo < 0 || hi < lo || hi >= t.Arg(0).Width() || t.Width() != hi-lo+1 {
				bad++
			}
		case smt.KZExt, smt.KSExt:
			if t.Arg(0).Width() > t.Width() || t.Width() == 0 {
				bad++
			}
		case smt.KIte:
			if !t.Arg(0).IsBool() || t.Arg(1).Width() != t.Arg(2).Width() || t.Width() != t.Arg(1).Width() {
				bad++
			}
		case smt.KEq, smt.KUlt, smt.KUle, smt.KSlt, smt.KSle:
			if t.Arg(0).Width() != t.Arg(1).Width() || t.Arg(0).Width() == 0 || !t.IsBool() {
				bad++
			}
		}
	}
	return bad
}

// isWiring reports whether a term kind is pure bit rearrangement — no gate
// content. Dead wiring is canonicalisation residue: the term constructors'
// extract/extend/concat fusions build intermediates and then supersede
// them in the same expression, leaving interned-but-unreachable slices.
// Reporting those would make every lane-splitting DUT noisy, so the
// dead-logic analysis looks through them for dead *operators* instead.
func isWiring(k smt.Kind) bool {
	switch k {
	case smt.KExtract, smt.KZExt, smt.KSExt, smt.KConcat:
		return true
	}
	return false
}

// checkDeadLogic reports maximal dead operator terms: bit-vector terms with
// gate content (arithmetic, bitwise, muxes, comparisons feeding BVs) that
// no observable, path constraint, or bus output can see. Within a dead
// region only the topmost operators are reported (a dead operator under
// another dead operator is implied); pure-wiring dead terms are suppressed
// entirely (see isWiring). Variables and constants are exempt — floating
// inputs get their own analysis, and constants are shared plumbing.
func checkDeadLogic(rep *Report, col *collector, live map[*smt.Term]bool) {
	var dead []*smt.Term
	deadSet := make(map[*smt.Term]bool)
	for id := col.baseline + 1; id <= col.ctx.NumTerms(); id++ {
		t := col.ctx.TermByID(uint32(id))
		if t.Width() == 0 || t.Kind() == smt.KConst || t.Kind() == smt.KVar || live[t] {
			continue
		}
		dead = append(dead, t)
		deadSet[t] = true
	}
	// Mark every dead term that sits below a dead operator (descending
	// through dead wiring): those are implied by their topmost operator.
	covered := make(map[*smt.Term]bool)
	var markBelow func(t *smt.Term)
	markBelow = func(t *smt.Term) {
		for i := 0; i < t.NumArgs(); i++ {
			a := t.Arg(i)
			if deadSet[a] && !covered[a] {
				covered[a] = true
				markBelow(a)
			}
		}
	}
	for _, t := range dead {
		if !isWiring(t.Kind()) {
			markBelow(t)
		}
	}
	n := 0
	for _, t := range dead {
		if isWiring(t.Kind()) || covered[t] {
			continue
		}
		n++
		if n > maxPerClass {
			continue
		}
		rep.Findings = append(rep.Findings, Finding{
			Class: FindDeadLogic, Name: termKey(col.ctx, t),
			Detail: fmt.Sprintf("%d-bit %s term unreachable from every state, RVFI, bus output and path constraint: %s",
				t.Width(), t.Kind(), clip(t.String(), 120)),
		})
	}
	if n > maxPerClass {
		rep.Findings = append(rep.Findings, Finding{Class: FindDeadLogic, Name: "truncated",
			Detail: fmt.Sprintf("%d further dead terms not listed", n-maxPerClass)})
	}
}

// checkUnconstrained reports free inputs that appear in no observable cone
// and no path constraint: the DUT asked for them and then ignored them on
// every explored path.
func checkUnconstrained(rep *Report, col *collector, coi *coiAnalyzer) {
	inCone := support{}
	for _, name := range col.rootNames {
		for _, t := range col.roots[name].order {
			inCone = mergeSupport(inCone, coi.bits(t).all())
		}
	}
	for _, pc := range col.pcOrder {
		inCone = mergeSupport(inCone, coi.bits(pc).all())
	}
	for _, b := range col.bus {
		if b.Addr != nil {
			inCone = mergeSupport(inCone, coi.bits(b.Addr).all())
		}
		if b.WData != nil {
			inCone = mergeSupport(inCone, coi.bits(b.WData).all())
		}
	}
	for _, v := range col.inOrder {
		if _, ok := inCone[v]; !ok {
			rep.Findings = append(rep.Findings, Finding{
				Class: FindUnconstrained, Name: v.Name(),
				Detail: fmt.Sprintf("free input %s (%d bits) reaches no state update, output, or path constraint", v.Name(), v.Width()),
			})
		}
	}
}

// sampleSeeds are the deterministic bases of the constant-candidate
// environments; each variable's value is splitmix64(seed ^ nameHash).
var sampleSeeds = [...]uint64{
	0x9e3779b97f4a7c15, 0x2545f4914f6cdd1d, 0xda942042e4dd58b5,
	0x8cb92ba72f3d8dd7, 0x6a09e667f3bcc908, 0xbb67ae8584caa73b,
	0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nameHash(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a 64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sampleEnv deterministically assigns every variable a value. The two
// extremal kinds pin the corner cases pseudo-random sampling almost never
// hits (x != 0 comparators, all-ones masks); the pseudo-random kind derives
// each value from the variable name and the sample seed.
type sampleEnv struct {
	kind int // 0: all-zeros, 1: all-ones, 2: pseudo-random
	seed uint64
}

func (e sampleEnv) Lookup(name string, width int) (uint64, bool) {
	switch e.kind {
	case 0:
		return 0, true
	case 1:
		return ^uint64(0), true // the evaluator masks to width
	}
	return splitmix64(e.seed ^ nameHash(name)), true
}

// checkConstCandidates samples every live non-constant term the cycle
// function built under several deterministic environments; a term whose
// value never moves is (with overwhelming probability) a constant the
// term constructors failed to fold — a fold candidate for smt/build.go.
// This is a sampling heuristic, documented as such: it can in principle
// flag a term that is non-constant only on an unsampled input, which is
// what the allowlist is for.
func checkConstCandidates(rep *Report, col *collector, live map[*smt.Term]bool, opts Options) {
	samples := opts.Samples
	if samples <= 0 {
		samples = 8
	}
	if samples > 2+len(sampleSeeds) {
		samples = 2 + len(sampleSeeds)
	}
	envs := []sampleEnv{{kind: 0}, {kind: 1}}
	for i := 0; len(envs) < samples && i < len(sampleSeeds); i++ {
		envs = append(envs, sampleEnv{kind: 2, seed: sampleSeeds[i]})
	}
	samples = len(envs)
	evals := make([]*smt.Evaluator, samples)
	for i := range evals {
		evals[i] = smt.NewEvaluator(envs[i])
	}
	n := 0
	for id := col.baseline + 1; id <= col.ctx.NumTerms(); id++ {
		t := col.ctx.TermByID(uint32(id))
		if t.Width() == 0 || t.Kind() == smt.KConst || t.Kind() == smt.KVar || !live[t] {
			continue
		}
		first, err := evals[0].Eval(t)
		if err != nil {
			continue
		}
		constant := true
		for i := 1; i < samples && constant; i++ {
			v, err := evals[i].Eval(t)
			if err != nil || v != first {
				constant = false
			}
		}
		if !constant {
			continue
		}
		n++
		if n > maxPerClass {
			continue
		}
		rep.Findings = append(rep.Findings, Finding{
			Class: FindConstCand, Name: termKey(col.ctx, t),
			Detail: fmt.Sprintf("%d-bit %s term evaluates to %#x under all %d sample environments; fold candidate for smt/build.go: %s",
				t.Width(), t.Kind(), first, samples, clip(t.String(), 120)),
		})
	}
	if n > maxPerClass {
		rep.Findings = append(rep.Findings, Finding{Class: FindConstCand, Name: "truncated",
			Detail: fmt.Sprintf("%d further constant candidates not listed", n-maxPerClass)})
	}
}

// termKey is the stable allowlist identifier of a term-anchored finding:
// the context-independent structural hash, immune to term-ID drift across
// exploration-order changes.
func termKey(ctx *smt.Context, t *smt.Term) string {
	return fmt.Sprintf("hash:%016x", ctx.StructuralHash(t))
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
