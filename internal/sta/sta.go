// Package sta implements the static timing analysis substrate: graph-based
// early/late arrival propagation, per-endpoint pre-CPPR slacks, and the
// tagged arrival-tuple propagation engine (the paper's Table II at/at'
// structure) on which both the CPPR core algorithm and the baseline timers
// are built.
package sta

import (
	"sync"

	"fastcppr/model"
)

// GBA holds graph-based (per-pin, path-merged) arrival windows: the
// classical early/late bounds of block-based STA. AT[u].Early is the
// minimum early arrival over all paths into u; AT[u].Late is the maximum
// late arrival. Valid[u] is false for pins with no timing source.
type GBA struct {
	AT    []model.Window
	Valid []bool
}

// Clone returns a deep copy of the arrival windows, detached from g.
func (g *GBA) Clone() *GBA {
	ng := &GBA{
		AT:    make([]model.Window, len(g.AT)),
		Valid: make([]bool, len(g.Valid)),
	}
	copy(ng.AT, g.AT)
	copy(ng.Valid, g.Valid)
	return ng
}

// Propagate computes graph-based arrival windows for every pin of d,
// seeding the clock root at time zero and primary inputs at their external
// arrival windows.
func Propagate(d *model.Design) *GBA {
	n := d.NumPins()
	g := &GBA{
		AT:    make([]model.Window, n),
		Valid: make([]bool, n),
	}
	for _, r := range d.Roots {
		g.Valid[r] = true
	}
	for i, p := range d.PIs {
		g.AT[p] = d.PIArrival[i]
		g.Valid[p] = true
	}
	for _, u := range d.Topo {
		if !g.Valid[u] {
			continue
		}
		at := g.AT[u]
		for _, ai := range d.FanOut(u) {
			a := &d.Arcs[ai]
			early := at.Early + a.Delay.Early
			late := at.Late + a.Delay.Late
			v := a.To
			if !g.Valid[v] {
				g.AT[v] = model.Window{Early: early, Late: late}
				g.Valid[v] = true
				continue
			}
			if early < g.AT[v].Early {
				g.AT[v].Early = early
			}
			if late > g.AT[v].Late {
				g.AT[v].Late = late
			}
		}
	}
	return g
}

// EndpointSlack holds the pre-CPPR worst slack of one FF's test endpoint.
type EndpointSlack struct {
	FF    model.FFID
	Slack model.Time
	Valid bool // false when no data path reaches the D pin
	// Corner is the delay corner the slack was computed at. For a
	// multi-corner merge (MergeWorstSlacks) it is the critical corner:
	// the corner whose slack is the per-test minimum.
	Corner model.Corner
}

// MergeWorstSlacks reduces per-corner endpoint-slack sweeps to the MCMM
// signoff summary: the pointwise minimum slack over the corners, with
// each test's critical corner recorded. All slices must be indexed
// identically (one entry per FF); corners[i] names the corner of
// byCorner[i]. An endpoint is valid in the merge when it is valid at
// any corner. Ties keep the earliest corner in the list, making the
// merge deterministic and independent of execution order.
func MergeWorstSlacks(corners []model.Corner, byCorner [][]EndpointSlack) []EndpointSlack {
	if len(byCorner) == 0 {
		return nil
	}
	out := make([]EndpointSlack, len(byCorner[0]))
	for i := range out {
		out[i] = byCorner[0][i]
		out[i].Corner = corners[0]
	}
	for ci := 1; ci < len(byCorner); ci++ {
		for i, sl := range byCorner[ci] {
			switch {
			case !sl.Valid:
			case !out[i].Valid || sl.Slack < out[i].Slack:
				out[i] = sl
				out[i].Corner = corners[ci]
			}
		}
	}
	return out
}

// EndpointSlacks computes graph-based pre-CPPR slacks at every FF D pin
// for the given mode. These are the "before CPPR" numbers a conventional
// timer reports, and the reference for the pessimism statistics in the
// examples.
func EndpointSlacks(d *model.Design, g *GBA, mode model.Mode) []EndpointSlack {
	out := make([]EndpointSlack, len(d.FFs))
	for i := range d.FFs {
		ff := &d.FFs[i]
		out[i].FF = model.FFID(i)
		if !g.Valid[ff.Data] || !g.Valid[ff.Clock] {
			continue
		}
		ck := g.AT[ff.Clock]
		dat := g.AT[ff.Data]
		out[i].Valid = true
		if mode == model.Setup {
			out[i].Slack = ck.Early + d.Period - ff.Setup - dat.Late
		} else {
			out[i].Slack = dat.Early - (ck.Late + ff.Hold)
		}
		// Clock uncertainty tightens every FF-capture check of the mode.
		out[i].Slack -= d.Uncertainty[mode]
	}
	return out
}

// WorstSlack returns the minimum valid endpoint slack, or ok=false when no
// endpoint is constrained.
func WorstSlack(slacks []EndpointSlack) (model.Time, bool) {
	var worst model.Time
	found := false
	for _, s := range slacks {
		if !s.Valid {
			continue
		}
		if !found || s.Slack < worst {
			worst = s.Slack
			found = true
		}
	}
	return worst, found
}

// ---------------------------------------------------------------------------
// Tagged arrival-tuple propagation (the paper's Table II structure).

// NoGroup marks a tuple that carries no node-grouping tag (self-loop and
// primary-input searches, Algorithms 3 and 4).
const NoGroup int32 = -1

// Tuple is a tagged arrival: the best (latest for setup, earliest for
// hold) known arrival time at a pin, the predecessor pin it came from, the
// group tag of the path's origin, and the origin (seed) pin itself —
// the launching CK pin or primary input the tuple's path starts at.
type Tuple struct {
	Time   model.Time
	From   model.PinID
	Origin model.PinID
	Group  int32
	Valid  bool
}

// propSlot is one pin's propagation state under the sparse kernel: the
// epoch stamp and both tuples packed into a single 64-byte cache line.
// The hot operation of either kernel is offering a tuple to a sink pin
// whose address is effectively random (arc targets); the reference
// kernel's parallel arrays touch three cache lines per offer (stamp,
// at, at'), this layout touches one. That constant matters more than
// any asymptotic term on designs whose active cone approaches the whole
// data network.
type propSlot struct {
	// stamp == the Prop's epoch marks a/b live; any other value means
	// both are logically zero.
	stamp uint64
	a, b  Tuple
	_     [64 - 8 - 2*24]byte // pad to a full cache line
}

// Prop is the dual arrival-tuple store: at(u), the best tuple at pin u,
// and at'(u), the best tuple whose group differs from at(u)'s group.
// One Prop is scratch space for one candidate-generation job; jobs on
// different goroutines use separate Props.
//
// The store is epoch-versioned: a slot is live only while its stamp
// equals the current epoch, so Reset is an O(1) epoch bump with lazy
// invalidation on read — no per-job O(#pins) clear.
//
// Prop carries two representations, one per kernel:
//
//   - Reset arms the dense reference kernel (Run/RunCtx): parallel
//     a/b/stamp arrays scanned over the full topological order. This is
//     the layout and loop structure the sparse kernel replaced, kept as
//     the byte-identical reference the sparse kernels are tested
//     against and as the natural kernel for the baselines, which seed
//     every FF anyway.
//   - ResetFor arms the sparse frontier kernel (RunSparse): cache-line
//     slots plus a worklist of live pins' topological indices, so one
//     run costs O(active cone), not Θ(#pins + #arcs).
//
// Only the armed representation's storage is grown; the other is left
// untouched.
type Prop struct {
	// Dense (reference) representation.
	a, b  []Tuple
	stamp []uint64
	epoch uint64

	// Sparse representation, armed by ResetFor: the slot array, the
	// bound design's topological order and its inverse, and the
	// worklist of live pins' topological indices that Offer feeds and
	// RunSparse drains.
	slots     []propSlot
	topo      []model.PinID
	topoIndex []int32
	fr        frontier
	// sparse selects which representation Offer/At/Auto address.
	sparse bool

	// par is RunSparseParallel's reusable hand-off scratch (see
	// parallel.go); lazily allocated, retained across runs.
	par *parScratch

	// inbuf is PatchSparse's reusable in-arc sort scratch (patch.go).
	inbuf []int32

	// req and bound arm the sparse kernels' slack bound (SetBound): a
	// tuple offered at v with time t is dropped when its lower bound on
	// any final slack through v, req[v]-t for setup or t+req[v] for
	// hold, exceeds bound. req == nil means unbounded; ResetFor and
	// Reset disarm it.
	req   []model.Time
	bound model.Time

	// reached lists the FF D pins a bounded sparse run popped since the
	// last ResetFor, in pop order; reachedOK reports that the list
	// describes a completed run (Reached).
	reached   []model.PinID
	reachedOK bool
}

// NoRequired is the own required time of a pin that is not an endpoint.
// Pins that reach no endpoint end up within a path delay of it: far
// beyond any real slack, so a bounded run drops every tuple there, and
// close enough to zero that req-t and t+req cannot overflow. Required
// treats it like any other value, which keeps the lower bound exactly
// monotone along arcs.
const NoRequired model.Time = 1 << 60

// Required returns the per-pin required-time table a bounded sparse run
// reads (SetBound). own[v] is endpoint v's own required time (NoRequired
// for pins that are not endpoints): for setup the latest data arrival
// that meets the check, for hold the negated earliest. Every pin's entry
// is the tightest one over the endpoints it reaches, in one reverse
// topological pass: for setup req[u] = min(own[u], req[v] - late(u->v)),
// for hold req[u] = min(own[u], req[v] + early(u->v)). Then any path
// through u that arrives there at t has final slack at least req[u]-t
// (setup) or t+req[u] (hold).
func Required(d *model.Design, setup bool, own []model.Time) []model.Time {
	req := append([]model.Time(nil), own...)
	for i := len(d.Topo) - 1; i >= 0; i-- {
		u := d.Topo[i]
		r := req[u]
		for _, ai := range d.FanOut(u) {
			arc := &d.Arcs[ai]
			rv := req[arc.To]
			if setup {
				rv -= arc.Delay.Late
			} else {
				rv += arc.Delay.Early
			}
			if rv < r {
				r = rv
			}
		}
		req[u] = r
	}
	return req
}

// SetBound arms the sparse kernels (Offer, RunSparse, RunSparseParallel)
// of a Prop prepared with ResetFor to drop every offered tuple whose
// lower bound on the final slack strictly exceeds bound: req[v]-t for
// setup, t+req[v] for hold, with req from Required. The lower bound is
// monotone in t and depends only on (v, t), and it never decreases along
// an arc, so the surviving tuples at every pin are exactly the unbounded
// run's tuples whose lower bound is at most bound, first-offer tie-breaks
// included (PROOFS.md, "Engineering additions"). The bound holds until
// the next Reset or ResetFor; the dense kernel ignores it.
func (p *Prop) SetBound(req []model.Time, bound model.Time) {
	p.req, p.bound = req, bound
}

// SlackLowerBound is the lower bound on the final slack of any path
// through v that arrives there at t, under a table from Required:
// req[v]-t for setup, t+req[v] for hold.
func SlackLowerBound(req []model.Time, v model.PinID, t model.Time, setup bool) model.Time {
	if setup {
		return req[v] - t
	}
	return t + req[v]
}

// cut reports whether a tuple at v with time t lies beyond the armed
// bound. The caller checks p.req != nil.
func (p *Prop) cut(v model.PinID, t model.Time, setup bool) bool {
	return SlackLowerBound(p.req, v, t, setup) > p.bound
}

// Beyond reports whether Offer would drop a tuple at v with time t
// because it lies beyond the armed bound (SetBound). Always false when
// no bound is armed.
func (p *Prop) Beyond(v model.PinID, t model.Time, setup bool) bool {
	return p.req != nil && p.cut(v, t, setup)
}

// Reached returns the FF D pins the sparse kernels (RunSparse,
// RunSparseParallel) popped since the last ResetFor, each once, in pop
// order: exactly the D pins that hold a tuple. The kernels record them
// only under an armed bound (SetBound): a full-cone run reaches most of
// its endpoints, so the list would save it nothing, while recording
// would add a check to every pop. ok is false when the list does not
// describe the propagation — before a sparse run completes, after an
// unbounded run or a cancellation, under the dense kernel, and on a
// patched (PatchSparse) or cloned (CloneSparse) propagation — and the
// caller must scan its endpoints instead. The slice is owned by the
// Prop.
func (p *Prop) Reached() (pins []model.PinID, ok bool) {
	return p.reached, p.reachedOK
}

// forgetReached empties the reached list and marks it invalid.
func (p *Prop) forgetReached() {
	p.reached = p.reached[:0]
	p.reachedOK = false
}

// propPool recycles Prop scratch across queries: a propagation array pair
// is O(#pins) and every candidate-generation job needs one, so batch
// workloads would otherwise allocate (and fault in) tens of megabytes per
// query. Pooled Props may retain arrays sized for a previous design;
// Reset re-sizes on first use.
var propPool = sync.Pool{New: func() any { return new(Prop) }}

// propRetainPins bounds the arrays a pooled Prop may retain: PutProp
// drops buffers sized beyond this high-water cap, so one query against a
// giant design does not pin tens of megabytes per pooled Prop for the
// life of the process. A variable, not a constant, so the eviction path
// is testable without building a cap-sized design.
var propRetainPins = 4 << 20

// GetProp returns a pooled Prop. The caller must Reset (or ResetFor) it
// before use and should hand it back with PutProp when the job completes.
func GetProp() *Prop { return propPool.Get().(*Prop) }

// PutProp recycles p. The caller must not touch p afterwards. Oversized
// buffers (beyond propRetainPins) are dropped rather than retained, and
// the design binding is cleared so a pooled Prop never pins a design's
// topological tables.
func PutProp(p *Prop) {
	if p == nil {
		return
	}
	if cap(p.a) > propRetainPins || cap(p.slots) > propRetainPins || cap(p.reached) > propRetainPins {
		*p = Prop{}
	}
	p.topo, p.topoIndex = nil, nil
	p.sparse = false
	p.req = nil
	p.fr.reset()
	p.forgetReached()
	propPool.Put(p)
}

// Reset prepares the store for a design with n pins and arms the dense
// reference kernel, discarding previous state in O(1): the epoch
// advances, so every slot written under an older epoch reads as unset
// regardless of what the arrays still hold. Storage is reused; only
// growth allocates. Reset alone leaves the Prop unbound — only the dense
// Run/RunCtx kernel may follow. Use ResetFor to arm RunSparse.
func (p *Prop) Reset(n int) {
	p.epoch++
	p.fr.reset()
	p.topo, p.topoIndex = nil, nil
	p.sparse = false
	p.req = nil
	p.forgetReached()
	if cap(p.a) < n {
		p.a = make([]Tuple, n)
		p.b = make([]Tuple, n)
		p.stamp = make([]uint64, n)
	}
	p.a = p.a[:n]
	p.b = p.b[:n]
	p.stamp = p.stamp[:n]
}

// ResetFor prepares the store for design d and arms the sparse frontier
// kernel: subsequent Offer calls enqueue the touched pins and RunSparse
// drains only their fanout cone. Like Reset, an O(1) epoch bump.
func (p *Prop) ResetFor(d *model.Design) {
	n := d.NumPins()
	p.epoch++
	p.fr.reset()
	p.topo, p.topoIndex = d.Topo, d.TopoIndex
	p.sparse = true
	p.req = nil
	p.forgetReached()
	if cap(p.slots) < n {
		p.slots = make([]propSlot, n)
	}
	p.slots = p.slots[:n]
}

// Invalidate discards every tuple in O(1) by advancing the epoch. The
// cancellation paths of RunCtx and RunSparse call it so a partially
// propagated array physically cannot be consulted: every read after an
// early cancel sees unset tuples until the next Reset.
func (p *Prop) Invalidate() {
	p.epoch++
	p.fr.reset()
	p.forgetReached()
}

// touch transitions pin v's dense slots from stale to live, clearing
// them. Called exactly once per pin per epoch, from Offer's dense path.
func (p *Prop) touch(v model.PinID) {
	p.stamp[v] = p.epoch
	p.a[v] = Tuple{}
	p.b[v] = Tuple{}
}

// better reports whether time a beats time b under the mode: larger
// arrivals are more critical for setup, smaller for hold. Strict, so the
// first-offered tuple wins ties, keeping reconstruction deterministic.
func better(setup bool, a, b model.Time) bool {
	if setup {
		return a > b
	}
	return a < b
}

// Offer presents a candidate arrival tuple at pin v, maintaining the
// invariants: at(v) is the best tuple seen; at'(v) is the best tuple
// whose group differs from at(v)'s group; at' is never better than at.
// The first Offer to a pin in an epoch revives its slot and, under the
// sparse kernel, enqueues the pin on the frontier. Under the sparse
// kernel a tuple beyond the armed bound (SetBound) is dropped.
func (p *Prop) Offer(v model.PinID, t model.Time, from, origin model.PinID, group int32, setup bool) {
	if p.sparse {
		if p.req != nil && p.cut(v, t, setup) {
			return
		}
		s := &p.slots[v]
		if s.stamp != p.epoch {
			s.stamp = p.epoch
			s.a = Tuple{Time: t, From: from, Origin: origin, Group: group, Valid: true}
			s.b = Tuple{}
			p.fr.push(p.topoIndex[v])
			return
		}
		p.offerSlot(s, t, from, origin, group, setup)
		return
	}
	if p.stamp[v] != p.epoch {
		p.touch(v)
	}
	a := &p.a[v]
	if !a.Valid {
		*a = Tuple{Time: t, From: from, Origin: origin, Group: group, Valid: true}
		return
	}
	if group == a.Group {
		if better(setup, t, a.Time) {
			a.Time, a.From, a.Origin = t, from, origin
		}
		return
	}
	if better(setup, t, a.Time) {
		p.b[v] = *a
		*a = Tuple{Time: t, From: from, Origin: origin, Group: group, Valid: true}
		return
	}
	b := &p.b[v]
	if !b.Valid || better(setup, t, b.Time) {
		*b = Tuple{Time: t, From: from, Origin: origin, Group: group, Valid: true}
	}
}

// offerSlot is Offer against an already-live sparse slot: identical
// invariant maintenance, one cache line.
func (p *Prop) offerSlot(s *propSlot, t model.Time, from, origin model.PinID, group int32, setup bool) {
	a := &s.a
	if group == a.Group {
		if better(setup, t, a.Time) {
			a.Time, a.From, a.Origin = t, from, origin
		}
		return
	}
	if better(setup, t, a.Time) {
		s.b = *a
		*a = Tuple{Time: t, From: from, Origin: origin, Group: group, Valid: true}
		return
	}
	b := &s.b
	if !b.Valid || better(setup, t, b.Time) {
		*b = Tuple{Time: t, From: from, Origin: origin, Group: group, Valid: true}
	}
}

// Run propagates the seeded tuples through the graph in topological
// order, using late delays for setup and early delays for hold.
func (p *Prop) Run(d *model.Design, setup bool) {
	p.RunCtx(d, setup, nil)
}

// RunCtx is Run with cooperative cancellation: it checks done every few
// thousand topological positions and returns early once it is closed,
// bounding cancel latency on large designs. Early cancel Invalidates the
// arrays, so a partially propagated state physically cannot be consulted
// — every read until the next Reset returns unset tuples. A nil done
// never cancels.
//
// RunCtx is the dense kernel: it walks the entire topological order,
// Θ(#pins + #arcs) regardless of how few pins hold tuples. Sparse-seeded
// jobs should use ResetFor + RunSparse; RunCtx is kept for full-graph
// propagations (the baselines seed every FF) and as the reference kernel
// the differential battery compares RunSparse against.
func (p *Prop) RunCtx(d *model.Design, setup bool, done <-chan struct{}) {
	if p.sparse {
		panic("sta: RunCtx on a Prop prepared with ResetFor; use RunSparse")
	}
	for ti, u := range d.Topo {
		if done != nil && ti&4095 == 0 {
			select {
			case <-done:
				p.Invalidate()
				return
			default:
			}
		}
		if p.stamp[u] != p.epoch {
			continue
		}
		a := p.a[u]
		if !a.Valid {
			continue
		}
		b := p.b[u]
		p.relax(d, u, a, b, setup)
	}
}

// RunSparse propagates the seeded tuples by draining the frontier in
// topological-index order: only pins actually holding tuples are visited,
// so one run costs O(cone vertices + cone edges) instead of the dense
// kernel's Θ(#pins + #arcs), and each sink offer touches one cache line
// (the pin's propSlot) instead of the dense layout's three. The Prop must
// have been prepared with ResetFor (which binds the design's topological
// order); seeding Offers enqueue the seeds, and relaxation enqueues each
// newly reached pin exactly once. Under an armed bound every popped FF
// D pin is recorded for Reached.
//
// Popping minimum topological index first guarantees every pin is
// processed after all of its in-cone predecessors, so the offer sequence
// into any pin is exactly the dense kernel's restricted to live pins —
// RunSparse and RunCtx produce identical tuples, bit for bit, including
// tie-breaks. Early cancel Invalidates the arrays like RunCtx.
func (p *Prop) RunSparse(d *model.Design, setup bool, done <-chan struct{}) {
	if !p.sparse {
		panic("sta: RunSparse on a Prop not prepared with ResetFor")
	}
	steps := 0
	record, reached := p.req != nil, p.reached
	for !p.fr.empty() {
		if done != nil && steps&1023 == 0 {
			select {
			case <-done:
				p.Invalidate()
				return
			default:
			}
		}
		steps++
		u := p.topo[p.fr.pop()]
		if record && d.Pins[u].Kind == model.FFData {
			reached = append(reached, u)
		}
		s := &p.slots[u] // live: only touched pins enter the frontier
		// relaxSparse first-touches sinks in one pass (equivalent to two
		// Offers because at' is never better than at and their groups
		// always differ) and offerSlots the rest.
		p.relaxSparse(d, u, s.a, s.b, setup)
	}
	p.reached, p.reachedOK = reached, record
}

// relax offers u's tuples along its fanout arcs: the shared inner step of
// both kernels.
func (p *Prop) relax(d *model.Design, u model.PinID, a, b Tuple, setup bool) {
	for _, ai := range d.FanOut(u) {
		arc := &d.Arcs[ai]
		var delay model.Time
		if setup {
			delay = arc.Delay.Late
		} else {
			delay = arc.Delay.Early
		}
		p.Offer(arc.To, a.Time+delay, u, a.Origin, a.Group, setup)
		if b.Valid {
			p.Offer(arc.To, b.Time+delay, u, b.Origin, b.Group, setup)
		}
	}
}

// Auto returns at_auto(u, gid): at(u) when its group differs from gid,
// otherwise the fallback at'(u). The returned tuple may be invalid
// (Valid=false) when no path from a different group reaches u.
func (p *Prop) Auto(u model.PinID, gid int32) Tuple {
	if p.sparse {
		s := &p.slots[u]
		if s.stamp != p.epoch {
			return Tuple{}
		}
		if a := s.a; !a.Valid || a.Group != gid {
			return a
		}
		return s.b
	}
	if p.stamp[u] != p.epoch {
		return Tuple{}
	}
	a := p.a[u]
	if !a.Valid || a.Group != gid {
		return a
	}
	return p.b[u]
}

// At returns at(u) ignoring grouping — the accessor used by the
// ungrouped searches (Algorithms 3 and 4), where at_auto(u, gid) is
// replaced by at(u).
func (p *Prop) At(u model.PinID) Tuple {
	if p.sparse {
		s := &p.slots[u]
		if s.stamp != p.epoch {
			return Tuple{}
		}
		return s.a
	}
	if p.stamp[u] != p.epoch {
		return Tuple{}
	}
	return p.a[u]
}
