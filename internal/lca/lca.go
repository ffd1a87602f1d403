// Package lca provides the clock-tree query structures used by the CPPR
// timers: per-node arrival windows and credits, the per-level tables
// that give each clock pin its ancestors f_d(u) and f_{d+1}(u) in one
// pass, and O(1) lowest-common-ancestor queries via an Euler-tour RMQ.
//
// A Tree is split into two layers. The shape — compaction, parent/depth
// arrays, domain ids, the Euler tour with its RMQ sparse table, and the
// per-level grouping f_{d+1} — depends only on the clock-tree topology
// and is built once; every delay corner of a design shares it (Derive).
// The overlay — arrival windows, CPPR credits, and the per-level
// credit(f_d) tables — depends on the corner's clock-arc delays and is
// recomputed per corner in O(#clock pins).
//
// All structures are immutable once built (lazily built tables are
// sync.Once-guarded), so they are safe for concurrent use by the
// parallel per-level jobs.
package lca

import (
	"fmt"
	"math/bits"
	"sync"

	"fastcppr/internal/sta"
	"fastcppr/model"
)

// shape holds the delay-independent clock-tree structures: everything a
// Tree needs except arrivals and credits. One shape is shared by the
// Trees of every delay corner of a design.
type shape struct {
	// idx maps PinID -> compact clock-pin index (-1 for non-clock pins).
	idx []int32
	// pins maps compact index -> PinID, in topological (parent-first)
	// order.
	pins []model.PinID
	// parent/depth are over compact indices; parent[root] = -1.
	parent []int32
	depth  []int32
	// treeID[i] is the compact index of i's domain root; LCA queries
	// across different roots have no answer (no shared clock path).
	treeID []int32
	// parity[i] is the inversion parity of pins[i] (Design.ClockParity
	// compacted): the number of inverting clock arcs on the root path,
	// mod 2. parityMixed reports whether some domain holds FF clock
	// pins of both parities — the only case where same_transition CRPR
	// differs from same_pin. crossParLT is the lazily built
	// cross-parity job tables: group = 2*treeID + parity (distinct for
	// different domains and for different parities within a domain),
	// credit offset 0.
	parity       []uint8
	parityMixed  bool
	crossParOnce sync.Once
	crossParLT   LevelTables

	// Euler tour for O(1) LCA: tour of compact nodes, first visit
	// positions, and a sparse table of minimum-depth positions.
	tourNode  []int32
	tourFirst []int32
	sparse    [][]int32

	maxDepth int32

	// group[dep] is the per-level node-grouping table f_{d+1} (the
	// topology half of FillLevel), computed once on first use and shared
	// by every corner's Tree. zeroCredit is the all-zero credit table of
	// the cross-domain job, likewise corner-independent.
	groupOnce  []sync.Once
	group      [][]int32
	zeroCredit []model.Time

	// ffDepth[i] is the clock-tree depth of FF i's CK pin. seedFFs[dep]
	// is the lazily built per-level seed list: the FFs whose clock sits
	// strictly below the level-dep cut (depth > dep), in ascending FF
	// order. Level-dep candidate jobs seed and scan exactly this list, so
	// their per-FF work is O(#seeds at dep) instead of O(#FFs). Both are
	// topology-only, so every corner's Tree shares them. allFFs is the
	// degenerate "every FF" list the ungrouped and cross-domain jobs use.
	ffDepth  []int32
	seedOnce []sync.Once
	seedFFs  [][]model.FFID
	allFFs   []model.FFID

	// activeLevel[dep] is true iff some FF pair has its clock LCA at
	// exactly depth dep — equivalently, some node at depth dep has two
	// or more children whose subtrees contain FF clock pins. A level cut
	// with activeLevel false generates zero candidates (every pair
	// visible under the cut diverges strictly above it and is handled,
	// with its exact credit, at its own LCA depth), so the engine skips
	// the whole job. Real clock trees are branching crowns feeding long
	// buffer chains, so most depths are inactive chain links.
	activeLevel []bool

	// cone[dep] is the lazily built level->seed-cone table: every pin
	// forward-reachable from the level-dep job's seed Q pins (the
	// LevelFFs list). allCone / piCone / launchCone are the analogous
	// footprints of the whole-FF-universe jobs (self-loop, cross-domain),
	// the PI job, and the PO job (FF Q pins plus PIs). Cones depend only
	// on the data-graph topology, which every corner view shares, so one
	// build serves all corners; the incremental job caches tag entries
	// with these sets and invalidate on edit-journal intersection.
	coneOnce   []sync.Once
	cone       []*model.PinSet
	allOnce    sync.Once
	allCone    *model.PinSet
	piOnce     sync.Once
	piCone     *model.PinSet
	launchOnce sync.Once
	launchCone *model.PinSet
}

// Tree holds the preprocessed clock tree of a design at one delay
// corner: the shared shape plus this corner's arrival/credit overlay.
type Tree struct {
	d *model.Design
	*shape

	// arrival[i] is the early/late clock arrival window of pins[i];
	// credit[i] = arrival[i].Width() (the CPPR credit).
	arrival []model.Window
	credit  []model.Time

	// Shared per-level tables: the FillLevel and cross-domain results
	// depend only on the tree, so they are computed once on first use
	// (per level) and then served read-only to every query against this
	// Tree — concurrent and batched queries share them instead of
	// refilling per-worker scratch. The Group half aliases the shape's
	// corner-independent table; only CreditAtD is per-corner storage.
	levelOnce []sync.Once
	levelLT   []LevelTables
	crossOnce sync.Once
	crossLT   LevelTables
}

// New builds the clock-tree structures for d.
func New(d *model.Design) *Tree {
	s := &shape{}
	n := d.NumPins()
	s.idx = make([]int32, n)
	for i := range s.idx {
		s.idx[i] = -1
	}
	// Compact pins in topological order so parents precede children.
	for _, u := range d.Topo {
		if d.IsClockPin(u) {
			s.idx[u] = int32(len(s.pins))
			s.pins = append(s.pins, u)
		}
	}
	nc := len(s.pins)
	s.parent = make([]int32, nc)
	s.depth = make([]int32, nc)
	s.treeID = make([]int32, nc)
	for i, u := range s.pins {
		if d.Pins[u].Kind == model.ClockRoot {
			s.parent[i] = -1
			s.depth[i] = 0
			s.treeID[i] = int32(i)
		} else {
			p := s.idx[d.ClockParent[u]]
			s.parent[i] = p
			s.depth[i] = s.depth[p] + 1
			s.treeID[i] = s.treeID[p]
		}
	}
	s.buildEuler()
	for _, dep := range s.depth {
		if dep > s.maxDepth {
			s.maxDepth = dep
		}
	}
	s.groupOnce = make([]sync.Once, s.maxDepth+1)
	s.group = make([][]int32, s.maxDepth+1)
	s.zeroCredit = make([]model.Time, nc)
	s.ffDepth = make([]int32, len(d.FFs))
	s.allFFs = make([]model.FFID, len(d.FFs))
	for i := range d.FFs {
		s.ffDepth[i] = s.depth[s.idx[d.FFs[i].Clock]]
		s.allFFs[i] = model.FFID(i)
	}
	s.parity = make([]uint8, nc)
	for i, u := range s.pins {
		s.parity[i] = d.ClockParity[u]
	}
	sawPar := map[int32]uint8{}
	for i := range d.FFs {
		ci := s.idx[d.FFs[i].Clock]
		sawPar[s.treeID[ci]] |= 1 << s.parity[ci]
	}
	for _, m := range sawPar {
		if m == 3 {
			s.parityMixed = true
			break
		}
	}
	s.seedOnce = make([]sync.Once, s.maxDepth+1)
	s.seedFFs = make([][]model.FFID, s.maxDepth+1)
	s.coneOnce = make([]sync.Once, s.maxDepth+1)
	s.cone = make([]*model.PinSet, s.maxDepth+1)

	// Mark the depths that can host an LCA of two FF clock pins: a
	// bottom-up subtree count of FF clocks, flagging each node's depth
	// once a second FF-bearing child is seen. Compact indices are
	// parent-first, so a reverse scan accumulates children first.
	ffCnt := make([]int32, nc)
	for i := range d.FFs {
		ffCnt[s.idx[d.FFs[i].Clock]]++
	}
	bearing := make([]int32, nc)
	s.activeLevel = make([]bool, s.maxDepth+1)
	for i := nc - 1; i >= 0; i-- {
		if ffCnt[i] == 0 {
			continue
		}
		if p := s.parent[i]; p >= 0 {
			ffCnt[p] += ffCnt[i]
			bearing[p]++
			if bearing[p] == 2 {
				s.activeLevel[s.depth[p]] = true
			}
		}
	}

	t := &Tree{d: d, shape: s}
	t.fillOverlay()
	return t
}

// Derive returns a Tree for nd — the same clock-tree topology as t's
// design at a different delay corner — sharing t's shape (compaction,
// parent/depth, Euler RMQ, per-level grouping) and recomputing only the
// arrival/credit overlay from nd's arc delays.
// nd must be a corner view of t's design (model.Design.View): identical
// pins, arcs and clock-tree topology, delays free to differ.
func (t *Tree) Derive(nd *model.Design) *Tree {
	nt := &Tree{d: nd, shape: t.shape}
	nt.fillOverlay()
	return nt
}

// fillOverlay computes the per-corner arrival/credit tables from the
// tree's design and resets the lazily built per-level credit tables.
func (t *Tree) fillOverlay() {
	d := t.d
	nc := len(t.pins)
	t.arrival = make([]model.Window, nc)
	t.credit = make([]model.Time, nc)
	for i, u := range t.pins {
		if d.Pins[u].Kind == model.ClockRoot {
			t.arrival[i] = model.Window{}
		} else {
			p := t.parent[i]
			t.arrival[i] = t.arrival[p].Add(d.Arcs[d.ClockParentArc[u]].Delay)
		}
		t.credit[i] = t.arrival[i].Width()
	}
	t.levelOnce = make([]sync.Once, t.maxDepth+1)
	t.levelLT = make([]LevelTables, t.maxDepth+1)
}

// buildEuler constructs the Euler tour and its sparse min-table.
func (s *shape) buildEuler() {
	nc := len(s.pins)
	// Children lists (compact).
	childStart := make([]int32, nc+1)
	for i := 0; i < nc; i++ {
		if s.parent[i] >= 0 {
			childStart[s.parent[i]+1]++
		}
	}
	for i := 0; i < nc; i++ {
		childStart[i+1] += childStart[i]
	}
	children := make([]int32, nc-1+1) // nc-1 non-root nodes; +1 guards nc==0 edge
	pos := make([]int32, nc)
	for i := 0; i < nc; i++ {
		if p := s.parent[i]; p >= 0 {
			children[childStart[p]+pos[p]] = int32(i)
			pos[p]++
		}
	}

	s.tourNode = make([]int32, 0, 2*nc-1)
	s.tourFirst = make([]int32, nc)
	for i := range s.tourFirst {
		s.tourFirst[i] = -1
	}
	// Euler tours, one per domain root (roots have parent -1; compaction
	// follows topological order so each root precedes its tree).
	// Goroutine stacks grow on demand, so recursion to the clock-tree
	// depth is fine. Tours are concatenated; same-tree queries stay
	// within one tour segment, and cross-tree queries are rejected by
	// the treeID check before the RMQ is consulted.
	var build func(u int32)
	build = func(u int32) {
		s.tourFirst[u] = int32(len(s.tourNode))
		s.tourNode = append(s.tourNode, u)
		for c := childStart[u]; c < childStart[u+1]; c++ {
			build(children[c])
			s.tourNode = append(s.tourNode, u)
		}
	}
	for i := 0; i < nc; i++ {
		if s.parent[i] < 0 {
			build(int32(i))
		}
	}

	m := len(s.tourNode)
	levels := 1
	if m > 1 {
		levels = bits.Len(uint(m)) // floor(log2(m)) + 1
	}
	s.sparse = make([][]int32, levels)
	s.sparse[0] = s.tourNode
	for j := 1; j < levels; j++ {
		span := 1 << j
		row := make([]int32, m-span+1)
		prev := s.sparse[j-1]
		half := 1 << (j - 1)
		for i := range row {
			a, b := prev[i], prev[i+half]
			if s.depth[a] <= s.depth[b] {
				row[i] = a
			} else {
				row[i] = b
			}
		}
		s.sparse[j] = row
	}
}

// compact returns the compact index of clock pin u, panicking on
// non-clock pins (caller bug).
func (t *Tree) compact(u model.PinID) int32 {
	i := t.idx[u]
	if i < 0 {
		panic(fmt.Sprintf("lca: pin %q is not a clock pin", t.d.PinName(u)))
	}
	return i
}

// NumClockPins returns the number of clock-tree nodes.
func (t *Tree) NumClockPins() int { return len(t.pins) }

// ClockPins returns the clock pins in topological (parent-first) order.
// The returned slice is owned by the Tree; do not modify.
func (t *Tree) ClockPins() []model.PinID { return t.pins }

// Depth returns the clock-tree depth of u (root = 0).
func (t *Tree) Depth(u model.PinID) int { return int(t.depth[t.compact(u)]) }

// Arrival returns the early/late clock arrival window at u.
func (t *Tree) Arrival(u model.PinID) model.Window { return t.arrival[t.compact(u)] }

// Credit returns the CPPR credit at u: at_late(u) - at_early(u).
func (t *Tree) Credit(u model.PinID) model.Time { return t.credit[t.compact(u)] }

// SharesShape reports whether o shares t's topology structures — the
// property Derive establishes across the corners of a design.
func (t *Tree) SharesShape(o *Tree) bool { return t.shape == o.shape }

// LCA returns the lowest common ancestor of clock pins u and v using the
// Euler-tour RMQ structure (O(1) per query), or model.NoPin when u and v
// belong to different clock domains.
func (t *Tree) LCA(u, v model.PinID) model.PinID {
	a, b := t.compact(u), t.compact(v)
	if t.treeID[a] != t.treeID[b] {
		return model.NoPin
	}
	return t.pins[t.lcaCompact(a, b)]
}

func (t *Tree) lcaCompact(a, b int32) int32 {
	l, r := t.tourFirst[a], t.tourFirst[b]
	if l > r {
		l, r = r, l
	}
	j := bits.Len(uint(r-l+1)) - 1
	x, y := t.sparse[j][l], t.sparse[j][r-(1<<j)+1]
	if t.depth[x] <= t.depth[y] {
		return x
	}
	return y
}

// LCADepth returns depth(LCA(u, v)), or -1 for cross-domain pairs.
func (t *Tree) LCADepth(u, v model.PinID) int {
	a, b := t.compact(u), t.compact(v)
	if t.treeID[a] != t.treeID[b] {
		return -1
	}
	return int(t.depth[t.lcaCompact(a, b)])
}

// SameDomain reports whether two clock pins share a clock domain.
func (t *Tree) SameDomain(u, v model.PinID) bool {
	return t.treeID[t.compact(u)] == t.treeID[t.compact(v)]
}

// Parity returns the inversion parity of clock pin u: the number of
// inverting clock arcs between u and its domain root, mod 2.
func (t *Tree) Parity(u model.PinID) uint8 { return t.parity[t.compact(u)] }

// ParityMixed reports whether some clock domain holds FF clock pins of
// both inversion parities — the only topology where same_transition
// CRPR can differ from same_pin. On parity-uniform trees the engine
// skips the cross-parity job entirely.
func (t *Tree) ParityMixed() bool { return t.parityMixed }

// PairCredit returns the CPPR credit of the launch/capture clock-pin
// pair (u, v) under the given CRPR mode: the credit at LCA(u, v),
// except that cross-domain pairs and — under same_transition —
// parity-mismatched pairs carry none. Parity mismatch zeroes credit
// exactly (not just at the LCA): the edge sense the u-path sees at any
// common ancestor a is parity(u) XOR parity(a) inversions from the root
// edge, so the two paths' senses disagree at every common ancestor when
// parity(u) != parity(v).
func (t *Tree) PairCredit(u, v model.PinID, crpr model.CRPRMode) model.Time {
	a, b := t.compact(u), t.compact(v)
	if t.treeID[a] != t.treeID[b] {
		return 0
	}
	if crpr == model.CRPRSameTransition && t.parity[a] != t.parity[b] {
		return 0
	}
	return t.credit[t.lcaCompact(a, b)]
}

// DomainRoot returns the domain root pin of clock pin u.
func (t *Tree) DomainRoot(u model.PinID) model.PinID {
	return t.pins[t.treeID[t.compact(u)]]
}

// NumDomains returns the number of clock domains (roots).
func (t *Tree) NumDomains() int {
	n := 0
	for i := range t.parent {
		if t.parent[i] < 0 {
			n++
		}
	}
	return n
}

// LevelTables holds per-level lookup tables produced by FillLevel. The
// slices are indexed by compact clock-pin index; reuse one LevelTables
// per worker across levels to avoid reallocation.
type LevelTables struct {
	// Group is the node-grouping key of the paper's Figure 3: the
	// compact index of f_{d+1}(u) for pins with depth > d, and -1 for
	// pins at depth <= d. It depends only on the clock-tree topology,
	// never on delays.
	Group []int32
	// CreditAtD is credit(f_d(u)) for pins with depth >= d; undefined
	// (stale) for shallower pins — guarded by Group/depth checks at the
	// call sites. It is the delay-dependent (per-corner) half.
	CreditAtD []model.Time
}

// FillLevel computes, in one O(#clock pins) pass, the group index
// f_{d+1}(u) and the offset credit(f_d(u)) for every clock pin, for the
// candidate-generation job at level dep.
func (t *Tree) FillLevel(dep int, lt *LevelTables) {
	nc := len(t.pins)
	if cap(lt.Group) < nc {
		lt.Group = make([]int32, nc)
		lt.CreditAtD = make([]model.Time, nc)
	}
	lt.Group = lt.Group[:nc]
	lt.CreditAtD = lt.CreditAtD[:nc]
	d32 := int32(dep)
	for i := 0; i < nc; i++ {
		switch dp := t.depth[i]; {
		case dp < d32:
			lt.Group[i] = -1
		case dp == d32:
			lt.Group[i] = -1
			lt.CreditAtD[i] = t.credit[i]
		case dp == d32+1:
			lt.Group[i] = int32(i)
			lt.CreditAtD[i] = lt.CreditAtD[t.parent[i]]
		default:
			p := t.parent[i]
			lt.Group[i] = lt.Group[p]
			lt.CreditAtD[i] = lt.CreditAtD[p]
		}
	}
}

// sharedGroup returns the corner-independent grouping table for level
// dep, computing it once per shape on first use.
func (s *shape) sharedGroup(dep int) []int32 {
	s.groupOnce[dep].Do(func() {
		nc := len(s.pins)
		g := make([]int32, nc)
		d32 := int32(dep)
		for i := 0; i < nc; i++ {
			switch dp := s.depth[i]; {
			case dp <= d32:
				g[i] = -1
			case dp == d32+1:
				g[i] = int32(i)
			default:
				g[i] = g[s.parent[i]]
			}
		}
		s.group[dep] = g
	})
	return s.group[dep]
}

// SharedLevel returns the level-dep tables, computed once per Tree on
// first use and read-only afterwards, so concurrent queries share one
// copy instead of filling per-worker scratch. The Group half is further
// shared across every corner Tree derived from the same shape — only
// the credit(f_d) half is per-corner. dep must be in [0, max clock-tree
// depth]; trading O(D * #clock pins) retained memory for the refill
// work is what makes batched level jobs cheap.
func (t *Tree) SharedLevel(dep int) *LevelTables {
	t.levelOnce[dep].Do(func() {
		lt := &t.levelLT[dep]
		lt.Group = t.sharedGroup(dep)
		nc := len(t.pins)
		lt.CreditAtD = make([]model.Time, nc)
		d32 := int32(dep)
		for i := 0; i < nc; i++ {
			switch dp := t.depth[i]; {
			case dp < d32:
				// undefined; guarded by Group/depth checks at call sites
			case dp == d32:
				lt.CreditAtD[i] = t.credit[i]
			default:
				lt.CreditAtD[i] = lt.CreditAtD[t.parent[i]]
			}
		}
	})
	return &t.levelLT[dep]
}

// SharedCrossDomain is SharedLevel for the cross-domain ("level -1")
// job. Both halves are corner-independent (group = domain root, credit
// offset = 0), so the tables alias shape storage.
func (t *Tree) SharedCrossDomain() *LevelTables {
	t.crossOnce.Do(func() {
		t.crossLT = LevelTables{Group: t.treeID, CreditAtD: t.zeroCredit}
	})
	return &t.crossLT
}

// SharedCrossParity is the same_transition variant of SharedCrossDomain:
// tables for the zero-credit job covering every launch/capture pair
// whose clock pins differ in domain or inversion parity. Grouping by
// 2*treeID + parity separates exactly those pairs (the Auto dual-tuple
// machinery then guarantees each capture is matched against the best
// launch outside its own group). Both halves are corner-independent,
// so the tables live on the shared shape.
func (t *Tree) SharedCrossParity() *LevelTables {
	s := t.shape
	s.crossParOnce.Do(func() {
		g := make([]int32, len(s.pins))
		for i := range g {
			g[i] = 2*s.treeID[i] + int32(s.parity[i])
		}
		s.crossParLT = LevelTables{Group: g, CreditAtD: s.zeroCredit}
	})
	return &s.crossParLT
}

// LevelFFs returns the FFs whose clock pin sits strictly below the
// level-dep cut (clock-tree depth > dep), in ascending FF order — the
// exact launch/capture universe of the level-dep candidate job: deeper
// cuts have (usually far) fewer FFs below them, so seeding and scanning
// this list makes per-level work proportional to the active cone rather
// than the design. Ascending FF order keeps tie-breaking identical to a
// full-FF scan that skips out-of-level FFs.
//
// Lists are built lazily, once per shape, and shared read-only by every
// corner Tree and every concurrent query. dep must be in [0, max
// clock-tree depth]. Retained memory is O(Σ_d #seeds at d) across the
// levels actually queried, bounded by #FFs × max FF depth.
func (t *Tree) LevelFFs(dep int) []model.FFID {
	s := t.shape
	s.seedOnce[dep].Do(func() {
		d32 := int32(dep)
		n := 0
		for _, fd := range s.ffDepth {
			if fd > d32 {
				n++
			}
		}
		ffs := make([]model.FFID, 0, n)
		for i, fd := range s.ffDepth {
			if fd > d32 {
				ffs = append(ffs, model.FFID(i))
			}
		}
		s.seedFFs[dep] = ffs
	})
	return s.seedFFs[dep]
}

// LevelActive reports whether any FF pair has its clock LCA at exactly
// depth dep. An inactive level's candidate job is provably empty — the
// exact-depth filter rejects everything it could generate, and for
// endpoint sweeps every pair visible under the cut carries an
// over-credit dominated by the pair's own (active) LCA depth — so
// callers skip the propagation outright. Topology-only; shared by every
// corner Tree. Out-of-range depths report false.
func (t *Tree) LevelActive(dep int) bool {
	s := t.shape
	return dep >= 0 && dep < len(s.activeLevel) && s.activeLevel[dep]
}

// AllFFs returns every FF of the design, in ascending order: the seed
// list of the ungrouped (self-loop, PI-capture, PO) and cross-domain
// jobs, whose launch universe is not restricted by a level cut. The
// returned slice is owned by the Tree; do not modify.
func (t *Tree) AllFFs() []model.FFID { return t.allFFs }

// GroupOf returns the compact group index (f_{d+1}) for clock pin u from
// tables previously filled by FillLevel, or -1 when u is at or above the
// cut level.
func (t *Tree) GroupOf(lt *LevelTables, u model.PinID) int32 {
	return lt.Group[t.compact(u)]
}

// CreditAtDOf returns credit(f_d(u)) from FillLevel tables. Only valid
// for pins with depth >= d.
func (t *Tree) CreditAtDOf(lt *LevelTables, u model.PinID) model.Time {
	return lt.CreditAtD[t.compact(u)]
}

// LevelCone returns the data-graph footprint of the level-dep candidate
// job: every pin forward-reachable from the Q pins of LevelFFs(dep). A
// level job's output can depend on a data-arc delay only if the arc's
// source lies in this set, so the incremental job cache tags level-job
// entries with it and invalidates exactly when an edit journal records
// an in-cone source. Cones are reachability over the data graph, which
// corner views share, so they are built once per shape (from whichever
// corner asks first) and served read-only to all corners and concurrent
// queries. dep must be in [0, max clock-tree depth].
func (t *Tree) LevelCone(dep int) *model.PinSet {
	s := t.shape
	s.coneOnce[dep].Do(func() {
		set := model.NewPinSet(t.d.NumPins())
		sta.ForwardCone(t.d, t.levelSeeds(dep), set)
		s.cone[dep] = set
	})
	return s.cone[dep]
}

// levelSeeds returns the Q pins of LevelFFs(dep): the launch points a
// level-dep job propagates from.
func (t *Tree) levelSeeds(dep int) []model.PinID {
	ffs := t.LevelFFs(dep)
	seeds := make([]model.PinID, len(ffs))
	for i, ff := range ffs {
		seeds[i] = t.d.FFs[ff].Output
	}
	return seeds
}

// AllCone is the footprint of the whole-FF-universe jobs (self-loop,
// cross-domain): forward reachability from every FF Q pin. Equivalent to
// LevelCone(0) unioned with depth-0 FFs' cones; kept separate so the
// whole-universe jobs don't depend on level-0 laziness. Built once per
// shape; read-only thereafter.
func (t *Tree) AllCone() *model.PinSet {
	s := t.shape
	s.allOnce.Do(func() {
		seeds := make([]model.PinID, len(t.d.FFs))
		for i := range t.d.FFs {
			seeds[i] = t.d.FFs[i].Output
		}
		set := model.NewPinSet(t.d.NumPins())
		sta.ForwardCone(t.d, seeds, set)
		s.allCone = set
	})
	return s.allCone
}

// PICone is the footprint of the PI-launched job: forward reachability
// from the primary inputs. Built once per shape; read-only thereafter.
func (t *Tree) PICone() *model.PinSet {
	s := t.shape
	s.piOnce.Do(func() {
		set := model.NewPinSet(t.d.NumPins())
		sta.ForwardCone(t.d, t.d.PIs, set)
		s.piCone = set
	})
	return s.piCone
}

// LaunchCone is the footprint of every launch point — FF Q pins and
// primary inputs together: the PO job's universe (AllCone ∪ PICone).
// Built once per shape; read-only thereafter.
func (t *Tree) LaunchCone() *model.PinSet {
	s := t.shape
	s.launchOnce.Do(func() {
		set := model.NewPinSet(t.d.NumPins())
		set.Or(t.AllCone())
		set.Or(t.PICone())
		s.launchCone = set
	})
	return s.launchCone
}
