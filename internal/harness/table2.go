package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
)

// Table2Cell is one (fault, instruction-limit) experiment outcome.
type Table2Cell struct {
	Found   bool
	Instr   uint64 // executed instructions until the error was found
	Time    time.Duration
	Partial int // partially explored paths
	Paths   int // completely explored paths
}

// Table2Row is one injected error across both instruction limits.
type Table2Row struct {
	Fault faults.Fault
	Cells map[int]Table2Cell // keyed by instruction limit
}

// Table2Result is the regenerated Table II.
type Table2Result struct {
	Limits  []int
	Rows    []Table2Row
	Elapsed time.Duration
}

// Table2Options configure the error-injection campaign.
type Table2Options struct {
	// PerCellTime is the exploration budget per (fault, limit) cell — the
	// paper used 24 hours on a Xeon server; seconds suffice here (default 60s).
	PerCellTime time.Duration
	// Limits are the instruction limits to evaluate (default 1 and 2).
	Limits []int
	// Faults selects the injected errors. The default is core-dependent:
	// E0–E9 for microrv32, E0–E14 for the pipelined core (which additionally
	// implements the hazard/forwarding/control series).
	Faults []faults.Fault
	// Search selects the exploration strategy (default DFS). The paper's
	// per-fault effort ordering is searcher-dependent; random-path makes
	// that visible.
	Search core.SearchStrategy
	// Seed seeds the random-path strategy.
	Seed int64
	// Parallel runs up to this many (fault, limit) cells concurrently; each
	// cell owns its explorer, term context and solver, so cells are fully
	// independent. 0 or 1 runs sequentially.
	Parallel int
	// Common carries the shared campaign options. Common.Core selects the
	// device under test; Common.Workers splits within a cell — orthogonal to
	// Parallel, which spreads cells — and also helps when a single slow cell
	// dominates the campaign. Common.Budget provides the per-cell default
	// when PerCellTime is zero.
	Common
}

func (o Table2Options) withDefaults() Table2Options {
	if o.PerCellTime == 0 {
		o.PerCellTime = o.Budget
	}
	if o.PerCellTime == 0 {
		o.PerCellTime = 60 * time.Second
	}
	if o.Limits == nil {
		o.Limits = []int{1, 2}
	}
	if o.Faults == nil {
		if o.Common.Core == cosim.CorePipecore {
			o.Faults = faults.All()
		} else {
			o.Faults = faults.Base()
		}
	}
	return o
}

// RunTable2 regenerates Table II: for each injected error and instruction
// limit it explores the clean matched baseline plus that single fault, with
// SYSTEM-opcode generation blocked (the paper's assumption filtering of the
// known CSR mismatches), until the voter reports the first mismatch.
func RunTable2(opt Table2Options) *Table2Result {
	opt = opt.withDefaults()
	start := time.Now()
	res := &Table2Result{Limits: opt.Limits}

	type cellKey struct {
		fault faults.Fault
		limit int
	}
	type job struct {
		key cellKey
	}
	workers := opt.Parallel
	if workers < 1 {
		workers = 1
	}

	jobs := make(chan job)
	results := make(map[cellKey]Table2Cell, len(opt.Faults)*len(opt.Limits))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cell := runTable2Cell(j.key.fault, j.key.limit, opt)
				mu.Lock()
				results[j.key] = cell
				mu.Unlock()
			}
		}()
	}
	for _, f := range opt.Faults {
		for _, limit := range opt.Limits {
			jobs <- job{cellKey{f, limit}}
		}
	}
	close(jobs)
	wg.Wait()

	for _, f := range opt.Faults {
		row := Table2Row{Fault: f, Cells: make(map[int]Table2Cell, len(opt.Limits))}
		for _, limit := range opt.Limits {
			row.Cells[limit] = results[cellKey{f, limit}]
		}
		res.Rows = append(res.Rows, row)
	}
	res.Elapsed = time.Since(start)
	return res
}

func runTable2Cell(f faults.Fault, limit int, opt Table2Options) Table2Cell {
	cfg := cosim.Config{
		ISS:        iss.FixedConfig(),
		Core:       microrv32.FixedConfig(),
		Filter:     cosim.BlockSystemInstructions,
		InstrLimit: limit,
		DUTCore:    opt.Common.Core,
	}.WithFaults(faults.Only(f))
	t0 := time.Now()
	rep := opt.Explore(cosim.RunFunc(cfg), core.Options{
		StopOnFirstFinding: true,
		MaxTime:            opt.PerCellTime,
		Search:             opt.Search,
		Seed:               opt.Seed,
	})
	return Table2Cell{
		Found:   len(rep.Findings) > 0,
		Instr:   rep.Stats.Instructions,
		Time:    time.Since(t0),
		Partial: rep.Stats.Partial,
		Paths:   rep.Stats.Completed,
	}
}

// Sum aggregates the found/instr/time/path columns for one limit, as in the
// paper's Sum row.
func (r *Table2Result) Sum(limit int) (found int, cell Table2Cell) {
	for _, row := range r.Rows {
		c := row.Cells[limit]
		if c.Found {
			found++
		}
		cell.Instr += c.Instr
		cell.Time += c.Time
		cell.Partial += c.Partial
		cell.Paths += c.Paths
	}
	cell.Found = found == len(r.Rows)
	return found, cell
}

// Median computes the per-column medians for one limit, as in the paper's
// Median row.
func (r *Table2Result) Median(limit int) Table2Cell {
	n := len(r.Rows)
	if n == 0 {
		return Table2Cell{}
	}
	instr := make([]uint64, 0, n)
	times := make([]time.Duration, 0, n)
	partials := make([]int, 0, n)
	paths := make([]int, 0, n)
	for _, row := range r.Rows {
		c := row.Cells[limit]
		instr = append(instr, c.Instr)
		times = append(times, c.Time)
		partials = append(partials, c.Partial)
		paths = append(paths, c.Paths)
	}
	sort.Slice(instr, func(i, j int) bool { return instr[i] < instr[j] })
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	sort.Ints(partials)
	sort.Ints(paths)
	return Table2Cell{
		Instr:   medianU64(instr),
		Time:    time.Duration(medianU64(asU64(times))),
		Partial: int(medianU64(intsU64(partials))),
		Paths:   int(medianU64(intsU64(paths))),
	}
}

func asU64(d []time.Duration) []uint64 {
	out := make([]uint64, len(d))
	for i, v := range d {
		out[i] = uint64(v)
	}
	return out
}

func intsU64(d []int) []uint64 {
	out := make([]uint64, len(d))
	for i, v := range d {
		out[i] = uint64(v)
	}
	return out
}

func medianU64(v []uint64) uint64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// Format renders the table in the paper's layout (result, executed
// instructions, time, partial paths, complete paths per instruction limit,
// plus Sum and Median rows).
func (r *Table2Result) Format() string {
	var b strings.Builder
	b.WriteString("Table II — injected error results\n")
	fmt.Fprintf(&b, "%-7s", "Error")
	for _, l := range r.Limits {
		fmt.Fprintf(&b, " | %-52s", fmt.Sprintf("Instruction Limit: %d", l))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-7s", "")
	for range r.Limits {
		fmt.Fprintf(&b, " | %-5s %12s %9s %10s %8s", "Found", "#Exec.Instr.", "Time", "Part.Paths", "Paths")
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 7+len(r.Limits)*56) + "\n")

	writeCell := func(c Table2Cell, foundStr string) string {
		return fmt.Sprintf(" | %-5s %12d %9s %10d %8d",
			foundStr, c.Instr, fmtDur(c.Time), c.Partial, c.Paths)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7s", row.Fault)
		for _, l := range r.Limits {
			c := row.Cells[l]
			fs := "no"
			if c.Found {
				fs = "yes"
			}
			b.WriteString(writeCell(c, fs))
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", 7+len(r.Limits)*56) + "\n")
	fmt.Fprintf(&b, "%-7s", "Sum:")
	for _, l := range r.Limits {
		found, sum := r.Sum(l)
		b.WriteString(writeCell(sum, fmt.Sprintf("%d/%d", found, len(r.Rows))))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-7s", "Median:")
	for _, l := range r.Limits {
		b.WriteString(writeCell(r.Median(l), "-"))
	}
	b.WriteByte('\n')
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
