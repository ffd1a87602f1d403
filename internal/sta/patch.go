package sta

import (
	"sort"

	"fastcppr/model"
)

// This file implements retained-propagation patching: given a completed
// sparse propagation and a small set of arc-delay edits, PatchSparse
// rewrites only the pins whose tuples can have changed — the forward
// cone of the edited arcs' sinks, truncated wherever a recomputed slot
// converges with its old value — instead of re-running the whole job.
//
// Soundness rests on the canonical offer order of a fresh run. RunSparse
// pops live pins in topological-index order, and a pin's slot is final
// when popped (all live predecessors popped earlier), so the final
// (at, at') pair at a live pin v is a pure fold of:
//
//  1. v's seed offer, if the job seeded v (seeds all land before the
//     drain starts), then
//  2. one offer per live in-arc, in ascending (topoIndex[from], arc
//     index) order — relax visits sources in pop order and a source's
//     fanout arcs in arc-index order, which model.Design's CSR stores
//     ascending.
//
// PatchSparse re-evaluates exactly that fold at each dirty pin, with the
// strict first-offer-wins tie-breaking of Offer/offerSlot, so the result
// is byte-identical to a fresh run on the edited design. Delay edits
// cannot change the live set (liveness is pure reachability from the
// seeds) and must not change the seeds themselves — the caller
// guarantees that by refusing to patch across clock-path, CK->Q, or
// constraint changes, which rebuild the snapshot instead.

// PropUndo records the slots PatchSparse overwrote so a borrowed
// retained propagation can be restored after a speculative (forked)
// query. Each dirty pin is saved exactly once per patch.
type PropUndo struct {
	pins  []model.PinID
	slots []propSlot
}

// Len returns the number of saved slots (dirty pins of the last patch).
func (u *PropUndo) Len() int { return len(u.pins) }

// Reset empties the log, retaining capacity.
func (u *PropUndo) Reset() {
	u.pins = u.pins[:0]
	u.slots = u.slots[:0]
}

func (u *PropUndo) save(v model.PinID, s propSlot) {
	u.pins = append(u.pins, v)
	u.slots = append(u.slots, s)
}

// CloneSparse returns an independent copy of a completed sparse
// propagation, sharing only the design's immutable topological tables.
// The clone is detached from the scratch pool: it is meant to be
// retained across queries and patched in place. It does not carry the
// reached list (Reached reports it invalid).
func (p *Prop) CloneSparse() *Prop {
	if !p.sparse {
		return nil
	}
	q := &Prop{
		epoch:     p.epoch,
		topo:      p.topo,
		topoIndex: p.topoIndex,
		sparse:    true,
	}
	q.slots = append([]propSlot(nil), p.slots...)
	return q
}

// Unpatch restores every slot saved in u, returning the propagation to
// its pre-patch state, and resets the log.
func (p *Prop) Unpatch(u *PropUndo) {
	for i, v := range u.pins {
		p.slots[v] = u.slots[i]
	}
	u.Reset()
}

// PatchSparse rewrites the propagation in place so it matches a fresh
// run of the same job on d, where d differs from the design the
// propagation was computed against only in the delays of the arcs named
// by arcs (indices into d.Arcs). seed reports the tuple the job would
// offer at a pin before propagation (ok=false when the job does not seed
// it); it must describe the same seed values the retained run used —
// the caller enforces that by never patching across edits that move
// clock arrivals or constraints. When undo is non-nil, every overwritten
// slot is recorded for Unpatch.
//
// Cost is O(dirty cone): the worklist starts at the edited arcs' sinks
// and expands through fanout only past pins whose recomputed pair
// actually changed.
func (p *Prop) PatchSparse(d *model.Design, setup bool, arcs []int32, seed func(model.PinID) (Tuple, bool), undo *PropUndo) {
	if !p.sparse {
		panic("sta: PatchSparse on a dense propagation")
	}
	// The frontier is drained (the retained run completed); reuse it as
	// the patch worklist. The monotone contract holds: every push during
	// the drain is a fanout sink, whose topological index exceeds the pin
	// being processed.
	fr := &p.fr
	fr.reset()
	// The live set is unchanged, but the reached list is kept only for
	// fresh runs: callers fall back to scanning their endpoints.
	p.reachedOK = false
	for _, ai := range arcs {
		v := d.Arcs[ai].To
		if p.slots[v].stamp != p.epoch {
			continue // sink not live: delay edits cannot revive it
		}
		if ti := p.topoIndex[v]; !fr.contains(ti) {
			fr.push(ti)
		}
	}
	for !fr.empty() {
		v := p.topo[fr.pop()]
		s := &p.slots[v]
		old := *s
		na, nb := p.refold(d, v, setup, seed)
		if na == old.a && nb == old.b {
			continue // converged: downstream inputs are unchanged
		}
		if undo != nil {
			undo.save(v, old)
		}
		s.a, s.b = na, nb
		for _, oi := range d.FanOut(v) {
			w := d.Arcs[oi].To
			if p.slots[w].stamp != p.epoch {
				continue
			}
			if wi := p.topoIndex[w]; !fr.contains(wi) {
				fr.push(wi)
			}
		}
	}
}

// refold recomputes live pin v's final (at, at') pair from its seed and
// its live in-sources' current slots, replaying the canonical offer
// order of a fresh run.
func (p *Prop) refold(d *model.Design, v model.PinID, setup bool, seed func(model.PinID) (Tuple, bool)) (Tuple, Tuple) {
	var a, b Tuple
	offer := func(t Tuple) {
		if !a.Valid {
			a = t
			return
		}
		if t.Group == a.Group {
			if better(setup, t.Time, a.Time) {
				a.Time, a.From, a.Origin = t.Time, t.From, t.Origin
			}
			return
		}
		if better(setup, t.Time, a.Time) {
			b = a
			a = t
			return
		}
		if !b.Valid || better(setup, t.Time, b.Time) {
			b = t
		}
	}
	if t, ok := seed(v); ok {
		offer(t)
	}
	in := d.FanIn(v)
	// Replay in ascending (topoIndex[from], arc index) order. FanIn is
	// already ascending by arc index; a stable sort by source topological
	// index therefore yields exactly the canonical order.
	if len(in) > 1 && !sort.SliceIsSorted(in, func(x, y int) bool {
		return p.topoIndex[d.Arcs[in[x]].From] < p.topoIndex[d.Arcs[in[y]].From]
	}) {
		in = append(p.inbuf[:0], in...)
		sort.SliceStable(in, func(x, y int) bool {
			return p.topoIndex[d.Arcs[in[x]].From] < p.topoIndex[d.Arcs[in[y]].From]
		})
		p.inbuf = in
	}
	for _, ai := range in {
		arc := &d.Arcs[ai]
		su := &p.slots[arc.From]
		if su.stamp != p.epoch {
			continue
		}
		var delay model.Time
		if setup {
			delay = arc.Delay.Late
		} else {
			delay = arc.Delay.Early
		}
		offer(Tuple{Time: su.a.Time + delay, From: arc.From, Origin: su.a.Origin, Group: su.a.Group, Valid: true})
		if su.b.Valid {
			offer(Tuple{Time: su.b.Time + delay, From: arc.From, Origin: su.b.Origin, Group: su.b.Group, Valid: true})
		}
	}
	return a, b
}
