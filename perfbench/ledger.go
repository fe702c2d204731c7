package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"symriscv/internal/obs"
)

// phaseTotal sums the spans of one phase over a trace.
type phaseTotal struct {
	Count  uint64
	DurNs  uint64
	SelfNs uint64 // duration minus the time covered by child spans
}

// ledger is one traced pass reduced to per-phase totals.
type ledger struct {
	phases map[string]phaseTotal
	// topNs sums the spans that no same-handle parent rolls up: every
	// explore span, plus the path spans of parallel workers, which run on
	// their own handles under the orchestrator's explore span.
	topNs uint64
}

// spanEvent is the part of an internal/obs JSONL span event the ledger
// reads; other events are skipped.
type spanEvent struct {
	Ev   string `json:"ev"`
	W    int    `json:"w"`
	Name string `json:"name"`
	Dur  uint64 `json:"dur"`
	Kids []struct {
		Name string `json:"name"`
		N    uint64 `json:"n"`
		Ns   uint64 `json:"ns"`
	} `json:"kids"`
}

// parseTrace reads an internal/obs JSONL trace. A span's "kids" rollup
// holds the summed durations of its direct children on the same handle, so
// self time is dur minus that sum: solver-check time inside a cache probe
// is charged to solver-check, not to cache-probe.
func parseTrace(r io.Reader) (ledger, error) {
	l := ledger{phases: make(map[string]phaseTotal)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var ev spanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return ledger{}, fmt.Errorf("trace line %d: %w", line, err)
		}
		if ev.Ev != "span" {
			continue
		}
		var kids uint64
		for _, k := range ev.Kids {
			kids += k.Ns
		}
		if kids > ev.Dur {
			return ledger{}, fmt.Errorf("trace line %d: %s children cover %dns of its %dns", line, ev.Name, kids, ev.Dur)
		}
		p := l.phases[ev.Name]
		p.Count++
		p.DurNs += ev.Dur
		p.SelfNs += ev.Dur - kids
		l.phases[ev.Name] = p
		if ev.Name == obs.PhaseExplore || (ev.Name == obs.PhasePath && ev.W > 0) {
			l.topNs += ev.Dur
		}
	}
	return l, sc.Err()
}

// selfNs sums the self time of every phase.
func (l ledger) selfNs() uint64 {
	var n uint64
	for _, p := range l.phases {
		n += p.SelfNs
	}
	return n
}

// checkSum requires the phases' self times to add up to the top-level
// spans exactly: any gap means a span the ledger did not attribute.
func (l ledger) checkSum() error {
	if s := l.selfNs(); s != l.topNs {
		return fmt.Errorf("phase self times sum to %dns, top-level spans to %dns", s, l.topNs)
	}
	return nil
}
