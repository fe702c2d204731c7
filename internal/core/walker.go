package core

import "encoding/binary"

// Sig is the canonical signature of a path: one byte per branch decision
// (true sorts before false, so lexicographic Sig order equals the order a
// depth-first, true-first exploration discovers paths in) and nine bytes per
// concretization (tag plus the big-endian value). Two distinct paths always
// first disagree at a branch byte — a concretization never forks — so Sig
// order is a total order on paths that does not depend on which worker or
// search strategy discovered them. No path's Sig is a strict prefix of
// another's, and every scheduled sibling orders strictly after the path that
// scheduled it (siblings always flip a taken-true decision to false).
type Sig string

const (
	sigTrue       = 0x01
	sigFalse      = 0x02
	sigConcretize = 0x03
)

// appendSig appends the canonical encoding of one event.
func appendSig(buf []byte, ev event) []byte {
	if ev.kind == evBranch {
		if ev.dir {
			return append(buf, sigTrue)
		}
		return append(buf, sigFalse)
	}
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], ev.val)
	return append(append(buf, sigConcretize), v[:]...)
}

// Step is the portable form of one recorded event: a branch direction or a
// concretization value, with no term pointers, so a decision prefix can be
// replayed in a different smt.Context (parallel subtree hand-off).
// Deterministic symbolic-variable naming guarantees the importing context
// rebuilds the same decisions; the replay trusts that instead of
// pointer-checking.
type Step struct {
	Concretize  bool   // concretization (else branch)
	Dir         bool   // branch direction taken
	Val         uint64 // concretization value
	SibVerified bool   // branch: this direction was proven feasible when scheduled
	// SibModel is the model that proved this direction feasible (by variable
	// name, so it is context-portable); it seeds the importing shard's stack
	// cache. Nil when no complete model was captured. Immutable.
	SibModel map[string]uint64
}

// node is one scheduled path of the frontier, represented as a parent
// pointer plus a shared slice of the scheduling run's fresh events: the
// prefix to replay is materialize(parent) ++ events[:take], with the last
// event's direction flipped when flip is set. Sharing the immutable fresh
// slice across all siblings of a run replaces the old per-sibling prefix
// copy, which allocated O(depth²) memory per explored path.
type node struct {
	parent *node
	events []event // the scheduling run's fresh events (immutable, shared)
	take   int     // events[:take] belong to this prefix
	flip   bool    // events[take-1] replays with its direction inverted
	depth  int     // total prefix length (parent.depth + take)
	sig    Sig     // canonical signature of the prefix ("" unless tracking)
}

// walker owns the frontier of scheduled paths and the scratch buffer
// prefixes are materialized into. The buffer is only valid until the next
// materialize call; the sequential explorer and the shard both finish one
// path before scheduling the next, so a single buffer suffices.
type walker struct {
	frontier  []*node
	scratch   []event
	sigBuf    []byte
	trackSigs bool
	bound     Sig  // discard nodes ordered after this signature
	bounded   bool // bound is active
	pruned    bool // at least one node was discarded by the bound
}

func (w *walker) pending() int { return len(w.frontier) }

// addRoot schedules the empty prefix (the whole tree).
func (w *walker) addRoot() { w.frontier = append(w.frontier, &node{}) }

// addPrefix schedules an imported portable prefix as a subtree root.
func (w *walker) addPrefix(steps []Step, sig Sig) {
	evs := make([]event, len(steps))
	for i, st := range steps {
		if st.Concretize {
			evs[i] = event{kind: evConcretize, val: st.Val}
		} else {
			evs[i] = event{kind: evBranch, dir: st.Dir, sibVerified: st.SibVerified, sibModel: st.SibModel}
		}
	}
	w.frontier = append(w.frontier, &node{events: evs, take: len(evs), depth: len(evs), sig: sig})
}

// setBound discards future work ordered strictly after sig. Because a node's
// prefix signature is a string prefix of every path in its subtree, pruning
// a node with sig > bound can never lose a path ordered at or before the
// bound.
func (w *walker) setBound(sig Sig) {
	w.bound = sig
	w.bounded = true
}

// pop removes and returns the next node per strategy, discarding pruned
// nodes; nil when the frontier is exhausted.
func (w *walker) pop(strategy SearchStrategy, rng *pathRNG) *node {
	for len(w.frontier) > 0 {
		var n *node
		switch strategy {
		case SearchBFS:
			n = w.frontier[0]
			w.frontier = w.frontier[1:]
		case SearchRandom:
			i := rng.intn(len(w.frontier))
			n = w.frontier[i]
			w.frontier[i] = w.frontier[len(w.frontier)-1]
			w.frontier = w.frontier[:len(w.frontier)-1]
		default:
			n = w.frontier[len(w.frontier)-1]
			w.frontier = w.frontier[:len(w.frontier)-1]
		}
		if w.bounded && n.sig > w.bound {
			w.pruned = true
			continue
		}
		return n
	}
	return nil
}

// materialize writes the node's full prefix into the walker's scratch
// buffer. The result is invalidated by the next materialize call.
func (w *walker) materialize(n *node) []event {
	if cap(w.scratch) < n.depth {
		w.scratch = make([]event, n.depth)
	}
	buf := w.scratch[:n.depth]
	pos := n.depth
	for m := n; m != nil; m = m.parent {
		pos -= m.take
		copy(buf[pos:pos+m.take], m.events[:m.take])
		if m.flip {
			buf[pos+m.take-1].dir = !buf[pos+m.take-1].dir
		}
	}
	return buf
}

// schedule pushes the unexplored sibling of every fresh branch decision of a
// finished run, sharing the run's fresh slice across all of them.
func (w *walker) schedule(n *node, fresh []event) {
	var cum []byte
	if w.trackSigs {
		cum = append(w.sigBuf[:0], n.sig...)
	}
	for i, ev := range fresh {
		if ev.kind == evBranch && !ev.noSibling {
			child := &node{parent: n, events: fresh, take: i + 1, flip: true, depth: n.depth + i + 1}
			if w.trackSigs {
				flipped := ev
				flipped.dir = !ev.dir
				child.sig = Sig(appendSig(cum, flipped))
			}
			w.frontier = append(w.frontier, child)
		}
		if w.trackSigs {
			cum = appendSig(cum, ev)
		}
	}
	if w.trackSigs {
		w.sigBuf = cum[:0]
	}
}

// pathSig returns the canonical signature of the full path: the node's
// prefix followed by the run's fresh events.
func (w *walker) pathSig(n *node, fresh []event) Sig {
	cum := append(w.sigBuf[:0], n.sig...)
	for _, ev := range fresh {
		cum = appendSig(cum, ev)
	}
	w.sigBuf = cum[:0]
	return Sig(cum)
}

// export materializes a node into its portable form.
func (w *walker) export(n *node) []Step {
	evs := w.materialize(n)
	steps := make([]Step, len(evs))
	for i, ev := range evs {
		steps[i] = Step{
			Concretize:  ev.kind == evConcretize,
			Dir:         ev.dir,
			Val:         ev.val,
			SibVerified: ev.sibVerified,
			SibModel:    ev.sibModel,
		}
	}
	return steps
}
