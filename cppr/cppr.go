// Package cppr is the public facade of fastcppr: a common-path-pessimism-
// removal (CPPR) timing engine that reports the top-k post-CPPR critical
// paths of a design.
//
// The default algorithm is the DAC 2021 LCA-depth-grouping algorithm of
// Guo, Huang and Lin ("A Provably Good and Practically Efficient Algorithm
// for Common Path Pessimism Removal in Large Designs"), whose runtime is
// O(nD) for the top path and O(nDk log k) for top-k, where D is the clock
// tree depth. Three reimplemented state-of-the-art baselines (OpenTimer-,
// HappyTimer- and iTimerC-style) are selectable for comparison studies;
// all four produce exact, full-accuracy results.
//
// Basic use:
//
//	d, err := tau.ReadFile("design.cppr")
//	t := cppr.NewTimer(d)
//	rep, err := t.Run(ctx, cppr.Query{K: 10, Mode: model.Setup})
//	for _, p := range rep.Paths { fmt.Print(p.Format(d)) }
//
// Parallelism is configured once per Timer via SetParallelism and
// resolved per axis: a query's intra-query budget is Query.Threads,
// falling back to Parallelism.QueryThreads, falling back to
// GOMAXPROCS; the executor pool that spreads (query × corner) units in
// ReportBatch and corners in multi-corner Run/PostCPPRSlacksCtx is
// Parallelism.Workers, falling back to GOMAXPROCS. Every setting
// produces byte-identical reports — thread counts change wall-clock
// only.
package cppr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fastcppr/internal/baseline"
	"fastcppr/internal/core"
	"fastcppr/internal/lca"
	"fastcppr/internal/qerr"
	"fastcppr/internal/sched"
	"fastcppr/internal/sta"
	"fastcppr/model"
	"fastcppr/sdc"
)

// Algorithm selects which CPPR implementation answers a query.
type Algorithm int

const (
	// AlgoLCA is the paper's algorithm (default): per-clock-tree-level
	// candidate generation, independent of the FF count.
	AlgoLCA Algorithm = iota
	// AlgoPairwise is the OpenTimer-style per-launch-FF baseline.
	AlgoPairwise
	// AlgoBlockwise is the HappyTimer-style launch-set block baseline.
	AlgoBlockwise
	// AlgoBranchAndBound is the iTimerC-style pre-CPPR-ordered
	// branch-and-bound baseline.
	AlgoBranchAndBound
	// AlgoBruteForce enumerates every path; exponential, for tiny
	// designs and validation only.
	AlgoBruteForce
)

// String returns the short name used by CLI flags and reports.
func (a Algorithm) String() string {
	switch a {
	case AlgoLCA:
		return "lca"
	case AlgoPairwise:
		return "pairwise"
	case AlgoBlockwise:
		return "blockwise"
	case AlgoBranchAndBound:
		return "bnb"
	case AlgoBruteForce:
		return "brute"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a short name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "lca", "ours", "":
		return AlgoLCA, nil
	case "pairwise", "opentimer":
		return AlgoPairwise, nil
	case "blockwise", "happytimer":
		return AlgoBlockwise, nil
	case "bnb", "itimerc":
		return AlgoBranchAndBound, nil
	case "brute":
		return AlgoBruteForce, nil
	default:
		return 0, fmt.Errorf("cppr: unknown algorithm %q (want lca|pairwise|blockwise|bnb|brute)", s)
	}
}

// Algorithms lists all selectable algorithms in report order.
var Algorithms = []Algorithm{AlgoLCA, AlgoPairwise, AlgoBlockwise, AlgoBranchAndBound}

// Report is the result of one top-k query.
type Report struct {
	// Paths holds up to K paths sorted ascending by post-CPPR slack.
	Paths []model.Path
	// Elapsed is the query wall time. For a batch-merged query it is the
	// wall time of the shared execution that served it.
	Elapsed time.Duration
	// Algorithm is the implementation that produced the report.
	Algorithm Algorithm
	// Stats carries core-engine counters (AlgoLCA only). For a
	// batch-merged query the counters are those of the shared execution.
	Stats core.Stats
	// Degraded reports that a budgeted baseline (Blockwise MaxTuples,
	// BranchAndBound MaxPops) exhausted its budget and Paths holds only
	// the — individually exact — paths found before truncation; the true
	// top-k may contain paths this report misses. Always false for
	// AlgoLCA, which has no failure budget.
	Degraded bool
	// Corner is the delay corner the report was computed at. For a
	// multi-corner (merged) report it is the critical corner: the
	// corner of Paths[0].
	Corner model.Corner
	// Corners is the query's corner selection after normalization (bit
	// c set means corner c was analysed; see CornerMask).
	Corners CornerMask
	// PathCorners, set only on merged multi-corner reports, names the
	// corner each path was computed at: Paths[i] is a path of corner
	// PathCorners[i]. Nil on single-corner reports.
	PathCorners []model.Corner
}

// WorstSlack returns the most critical reported slack.
func (r *Report) WorstSlack() (model.Time, bool) {
	if len(r.Paths) == 0 {
		return 0, false
	}
	return r.Paths[0].Slack, true
}

// cornerEngines bundles every delay-derived structure of one corner:
// the corner's design view, its clock tree (arrivals/credits on the
// shared topology), the LCA engine, the three baselines, and the
// graph-based arrival windows. One snapshot holds one of these per
// corner it has analysed.
type cornerEngines struct {
	corner model.Corner
	d      *model.Design
	tree   *lca.Tree
	engine *core.Engine
	pw     *baseline.Pairwise
	bw     *baseline.Blockwise
	bb     *baseline.BranchAndBound
	// cache memoizes this corner's candidate-generation job results
	// across the snapshot chain, validated against the edit journal.
	// Carried over edits that provably cannot dirty it (other-corner
	// edits); rebuilt fresh whenever the corner's engines are.
	cache *core.JobCache
	// pre holds the graph-based (pre-CPPR) arrival windows, maintained
	// incrementally across edits. It is flushed before the snapshot is
	// published and read-only afterwards: the "one early/late
	// propagation per snapshot" all PreCPPRSlacks calls share.
	pre *sta.Incr
}

// lazyCorner is a build-on-first-use slot for one extra corner's
// engines. Slots are safe for concurrent queries — the built engines
// are published through an atomic pointer, with a mutex serializing
// builders — and are carried across snapshots whenever the edit cannot
// have invalidated them, so a corner's engines are built at most once
// per invalidation. The atomic (rather than sync.Once) lets Fork read
// "built or not yet" race-free without waiting on an in-flight build.
type lazyCorner struct {
	mu sync.Mutex // serializes builders only
	ce atomic.Pointer[cornerEngines]
}

// built returns the slot's engines if already constructed, else nil.
func (l *lazyCorner) built() *cornerEngines { return l.ce.Load() }

// snapshot is one immutable epoch of a Timer: a design plus every
// structure derived from its delays (clock-tree arrivals/credits, CK->Q
// caches, graph-based arrival windows, false-path filter), at every
// corner. Queries load one snapshot pointer and use only it, so an edit
// that publishes a new snapshot never perturbs queries in flight on the
// old one.
//
// Corner 0's engines are built eagerly (the single-corner fast path is
// exactly the pre-MCMM snapshot); extra corners are built lazily on
// first use, sharing the base corner's clock-tree shape (depth arrays,
// jump tables, Euler tour, per-level grouping — topology only, computed
// once) and propagation scratch pool. Only per-corner arrivals, credits
// and CreditAtD tables are corner-private.
type snapshot struct {
	d      *model.Design
	base   *cornerEngines
	extra  []*lazyCorner // slot c-1 serves corner c
	filter *sdc.Filter
	// crprDefault is the credit semantics a Query with CRPRDefault
	// resolves to: same_pin unless an applied SDC set same_transition.
	crprDefault model.CRPRMode

	// journal is the persistent chain of non-rebuilding arc edits since
	// the last full build, and seq its head sequence number (== the
	// snapshot's epoch within the chain). Job-cache entries are
	// validated against it: an entry stored at seq g stays exact iff no
	// journaled edit after g lands a source pin inside the entry's cone.
	// Topology-changing edits (clock arcs, ApplySDC) rebuild everything
	// and reset the journal to nil.
	journal *model.EditJournal
	seq     uint64
	// memo caches whole reports for repeated queries, carried across
	// journaled edits and validated per-lookup against the journal (an
	// entry serves iff no edit after its watermark lands in its cone at
	// its corner). Rebuilding edits (clock arcs, ApplySDC) start fresh.
	memo *core.JournalCache[Query, Report]
	// ctr aggregates cache counters across the Timer's life.
	ctr *timerCounters
	// hier, non-nil in hierarchical mode, carries the flat design and
	// the elaboration maps that route flat-addressed edits onto this
	// snapshot's reduced design (see hier.go). Living on the snapshot
	// keeps it consistent with d under forks and concurrent edits.
	hier *hierState
}

// freshSlots allocates unbuilt lazy slots for n extra corners.
func freshSlots(n int) []*lazyCorner {
	out := make([]*lazyCorner, n)
	for i := range out {
		out[i] = &lazyCorner{}
	}
	return out
}

// newSnapshot builds a full snapshot for d: clock tree, base-corner
// engines, lazy slots for the extra corners, and — unless an up-to-date
// pre is handed over from the previous epoch — a fresh graph-arrival
// propagation.
func newSnapshot(d *model.Design, filter *sdc.Filter, maxTuples, maxPops int, pre *sta.Incr, ctr *timerCounters, crprDefault model.CRPRMode) *snapshot {
	tree := lca.New(d)
	base := &cornerEngines{
		corner: model.BaseCorner,
		d:      d,
		tree:   tree,
		engine: core.NewEngineWithTree(d, tree),
		pw:     baseline.NewPairwise(d, tree),
		bw:     baseline.NewBlockwise(d, tree),
		bb:     baseline.NewBranchAndBound(d, tree),
		cache:  core.NewJobCache(&ctr.job),
		pre:    pre,
	}
	if base.pre == nil {
		base.pre = sta.NewIncr(d)
	}
	if maxTuples > 0 {
		base.bw.MaxTuples = maxTuples
	}
	if maxPops > 0 {
		base.bb.MaxPops = maxPops
	}
	return &snapshot{
		d:           d,
		base:        base,
		extra:       freshSlots(d.NumCorners() - 1),
		filter:      filter,
		crprDefault: crprDefault,
		memo:        newQueryMemo(),
		ctr:         ctr,
	}
}

// rebind derives a snapshot for nd without rebuilding the clock tree,
// journaling the edited arc from -> to. Valid only when nd differs from
// s.d in non-clock base-corner arc delays: the shared lca.Tree
// (arrivals, credits, level tables) and the budgets carried inside the
// rebound baselines stay correct by construction. Extra-corner slots
// are carried as-is — each corner is an independent, complete delay
// set, so a base-corner edit cannot invalidate it — and so are the job
// caches AND the whole-report query memo: the journal entry is what
// invalidates (exactly) the entries whose cone the edit can reach, so
// jobs and reports untouched by the edit survive into the new epoch.
func (s *snapshot) rebind(nd *model.Design, pre *sta.Incr, from, to model.PinID) *snapshot {
	journal := s.journal.Append(model.BaseCorner, from, to)
	return &snapshot{
		d: nd,
		base: &cornerEngines{
			corner: model.BaseCorner,
			d:      nd,
			tree:   s.base.tree,
			engine: s.base.engine.Rebind(nd),
			pw:     s.base.pw.Rebind(nd),
			bw:     s.base.bw.Rebind(nd),
			bb:     s.base.bb.Rebind(nd),
			cache:  s.base.cache,
			pre:    pre,
		},
		extra:       s.extra,
		filter:      s.filter,
		crprDefault: s.crprDefault,
		journal:     journal,
		seq:         journal.Seq(),
		memo:        s.memo,
		ctr:         s.ctr,
		hier:        s.hier,
	}
}

// numCorners returns the corner count of this snapshot's design.
func (s *snapshot) numCorners() int { return 1 + len(s.extra) }

// fullMask is the mask selecting every corner of the design.
func (s *snapshot) fullMask() CornerMask {
	if s.numCorners() >= 64 {
		return CornerAll
	}
	return CornerBit(model.Corner(s.numCorners())) - 1
}

// corner returns corner c's engines, building them on first use. The
// derived engines share the base corner's clock-tree shape and
// propagation scratch pool; arrivals, credits and per-level credit
// tables are recomputed from the corner's delay table.
func (s *snapshot) corner(c model.Corner) *cornerEngines {
	if c == model.BaseCorner {
		return s.base
	}
	slot := s.extra[c-1]
	if ce := slot.ce.Load(); ce != nil {
		return ce
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if ce := slot.ce.Load(); ce != nil {
		return ce
	}
	view := s.d.View(c)
	tree := s.base.tree.Derive(view)
	ce := &cornerEngines{
		corner: c,
		d:      view,
		tree:   tree,
		engine: s.base.engine.Sibling(view, tree),
		pw:     baseline.NewPairwise(view, tree),
		bw:     baseline.NewBlockwise(view, tree),
		bb:     baseline.NewBranchAndBound(view, tree),
		cache:  core.NewJobCache(&s.ctr.job),
		pre:    sta.NewIncr(view),
	}
	ce.bw.MaxTuples = s.base.bw.MaxTuples
	ce.bb.MaxPops = s.base.bb.MaxPops
	slot.ce.Store(ce)
	return ce
}

// normalize validates q against this snapshot: Query.Normalize plus the
// design-dependent checks (CaptureFF range, false-path filter support,
// corner-mask range). CornerAll is clamped to the design's corners.
func (s *snapshot) normalize(q *Query) error {
	if err := q.Normalize(); err != nil {
		return err
	}
	if q.FilterCapture && int(q.CaptureFF) >= s.d.NumFFs() {
		return qerr.Invalid("FF id %d out of range", q.CaptureFF)
	}
	if !s.filter.Empty() && q.Algorithm != AlgoLCA {
		return qerr.Invalid("false-path constraints are supported by AlgoLCA only, got %v", q.Algorithm)
	}
	if q.Corners == CornerAll {
		q.Corners = s.fullMask()
	} else if bad := q.Corners &^ s.fullMask(); bad != 0 {
		return qerr.Invalid("corner mask %#x selects corners beyond the design's %d", uint64(q.Corners), s.numCorners())
	}
	if q.CRPR == CRPRDefault {
		q.CRPR = crprSettingOf(s.crprDefault)
	}
	if q.CRPR == CRPRSameTransition {
		s.ctr.crprSameTransition.Add(1)
	}
	return nil
}

// coreOpts translates a normalized query into engine options, attaching
// the snapshot's false-path filter.
func (s *snapshot) coreOpts(q Query) core.Options {
	copts := core.Options{
		K:             q.K,
		Mode:          q.Mode,
		Threads:       q.Threads,
		IncludePOs:    q.IncludePOs,
		FilterCapture: q.FilterCapture,
		CaptureFF:     q.CaptureFF,
		CRPR:          q.CRPR.mode(),
	}
	if !s.filter.Empty() {
		copts.ExcludeLaunchFF = s.filter.FromFF
		copts.ExcludeCaptureFF = s.filter.ToFF
		copts.ExcludeLaunchPin = s.filter.FromPin
	}
	return copts
}

// runOn executes one normalized query against one corner's engines,
// with the panic containment and cancellation semantics documented on
// Timer.Run. A non-nil tc marks the call as an executor task: AlgoLCA
// spawns its candidate-generation jobs as stealable tasks on tc's pool
// instead of private goroutines, so concurrent units share the worker
// budget instead of oversubscribing it.
func (s *snapshot) runOn(ctx context.Context, q Query, ce *cornerEngines, tc *sched.TC) (rep Report, err error) {
	// Contain panics on the caller's goroutine too (single-threaded
	// algorithms, reconstruction): one poisoned query must not crash a
	// process serving many.
	defer func() {
		if r := recover(); r != nil {
			rep, err = Report{}, qerr.FromPanic("cppr.Report", r)
		}
	}()
	if err := qerr.FromContext(ctx); err != nil {
		return Report{}, err
	}
	start := time.Now()
	rep = Report{Algorithm: q.Algorithm}
	switch q.Algorithm {
	case AlgoLCA:
		copts := s.coreOpts(q)
		copts.Exec = tc
		var res core.Result
		var rerr error
		if s.jobMemoEligible(q) && ce.cache != nil {
			// Memoized path: per-job results cached on this corner's
			// engines, revalidated against the edit journal, merged to a
			// report byte-identical to the uncached run. Entries dirtied
			// by an edit are served by patching their retained
			// propagation when possible; entries carried clean across an
			// edit (cone provably disjoint) count as cone skips.
			res, rerr = ce.engine.TopPathsMemo(ctx, copts, core.MemoCtx{
				Cache:   ce.cache,
				Journal: s.journal,
				Corner:  ce.corner,
			})
		} else {
			res, rerr = ce.engine.TopPaths(ctx, copts)
		}
		if rerr != nil {
			return Report{}, rerr
		}
		rep.Paths, rep.Stats = res.Paths, res.Stats
	case AlgoPairwise:
		paths, err := ce.pw.TopPathsCRPR(ctx, q.Mode, q.CRPR.mode(), q.K, q.Threads)
		if err != nil {
			return Report{}, err
		}
		rep.Paths = paths
	case AlgoBlockwise:
		paths, degraded, err := ce.bw.TopPathsCRPR(ctx, q.Mode, q.CRPR.mode(), q.K, q.Threads)
		if err != nil {
			return Report{}, err
		}
		rep.Paths, rep.Degraded = paths, degraded
	case AlgoBranchAndBound:
		paths, degraded, err := ce.bb.TopPathsCRPR(ctx, q.Mode, q.CRPR.mode(), q.K, q.Threads)
		if err != nil {
			return Report{}, err
		}
		rep.Paths, rep.Degraded = paths, degraded
	default: // AlgoBruteForce; Normalize rejected everything else
		paths, err := baseline.BruteForceCRPR(ctx, ce.d, q.Mode, q.CRPR.mode(), q.K)
		if err != nil {
			return Report{}, err
		}
		rep.Paths = paths
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// run executes one normalized query: the single-corner fast path goes
// straight to that corner's engines; a multi-corner query fans its
// corners out (forCorners) and merges into the worst-corner report. A
// non-nil tc marks the call as already inside an executor task: corners
// then run on the calling worker and spawn their candidate jobs as
// stealable subtasks on tc's pool — the admission path that lets many
// forked timers' queries share one worker budget (see Timer.WhatIf).
func (s *snapshot) run(ctx context.Context, q Query, workers int, tc *sched.TC) (Report, error) {
	if c, ok := q.Corners.single(); ok {
		rep, err := s.execute(ctx, q, c, tc)
		if err != nil {
			return Report{}, err
		}
		rep.Corner, rep.Corners = c, q.Corners
		return rep, nil
	}
	start := time.Now()
	corners := q.Corners.List()
	reps := make([]Report, len(corners))
	errs := make([]error, len(corners))
	forCorners(len(corners), workers, tc, func(i int, tc *sched.TC) {
		reps[i], errs[i] = s.execute(ctx, q, corners[i], tc)
	})
	for _, err := range errs {
		if err != nil {
			return Report{}, err
		}
	}
	rep := mergeCornerReports(corners, reps, q.K)
	rep.Corners = q.Corners
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// forCorners runs body(i, ·) for every corner index i < n. With more
// than one corner and more than one worker, and no executor task to run
// under, the corners spread over a fresh work-stealing pool of workers;
// otherwise they run in order on the caller, passing tc through.
func forCorners(n, workers int, tc *sched.TC, body func(i int, tc *sched.TC)) {
	if tc != nil || n < 2 || workers < 2 {
		for i := 0; i < n; i++ {
			body(i, tc)
		}
		return
	}
	pool := sched.New(workers)
	g := pool.NewGroup()
	for i := 0; i < n; i++ {
		i := i
		g.Spawn(func(tc *sched.TC) { body(i, tc) })
	}
	g.Wait(nil)
	pool.Close()
}

// Timer answers CPPR queries for one design. Construction preprocesses
// the clock tree once; the Timer is then safe for concurrent use,
// including queries racing edits: every query runs against the immutable
// snapshot current when it started, and SetArcDelay / SetBudgets /
// ApplySDC build a new snapshot and publish it atomically. A query in
// flight across an edit observes the design either entirely before or
// entirely after the edit, never a mix.
type Timer struct {
	snap atomic.Pointer[snapshot]
	// par is the installed Parallelism budget (nil means default).
	par atomic.Pointer[Parallelism]
	// mu serializes writers (edits). Readers never take it.
	mu sync.Mutex
}

// NewTimer preprocesses d.
func NewTimer(d *model.Design) *Timer {
	t := &Timer{}
	t.snap.Store(newSnapshot(d, nil, 0, 0, nil, &timerCounters{}, model.CRPRSamePin))
	return t
}

// jobMemoEligible reports whether an AlgoLCA query may use the
// candidate-job cache. Capture filtering and false-path exclusions
// change job outputs but are not part of the cache key, and queries
// beyond MemoMaxK would make entries arbitrarily large, so those run
// uncached; Query.NoCache opts out explicitly.
func (s *snapshot) jobMemoEligible(q Query) bool {
	return !q.NoCache && !q.FilterCapture && s.filter.Empty() && q.K <= core.MemoMaxK
}

// Design returns the design of the current snapshot. After SetArcDelay
// edits this is a copy-on-write descendant of the design the Timer was
// built with — the original is never mutated.
func (t *Timer) Design() *model.Design { return t.snap.Load().d }

// Run executes one query. Cancellation or deadline expiry — the
// caller's, or the query's own Timeout — aborts it with bounded latency
// and returns an error matching ErrCanceled / ErrDeadlineExceeded; a
// panic anywhere in the query path is contained and returned as an
// *InternalError (the Timer stays usable); a budgeted baseline that
// exhausts its budget returns the paths found so far with
// Report.Degraded set. An invalid query returns an error matching
// ErrInvalidQuery.
func (t *Timer) Run(ctx context.Context, q Query) (Report, error) {
	s := t.snap.Load()
	if err := s.normalize(&q); err != nil {
		return Report{}, err
	}
	par := t.Parallelism()
	q.Threads = par.threadsFor(q)
	if q.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.Timeout)
		defer cancel()
	}
	rep, err := s.run(ctx, q, par.workers(), nil)
	if err == nil && rep.Degraded {
		s.ctr.servedDegraded.Add(1)
	}
	return rep, err
}

// SetBudgets overrides the failure budgets of the budgeted baselines:
// maxTuples bounds Blockwise's launch-set memory (its "MLE" limit) and
// maxPops bounds BranchAndBound's search. Zero leaves a budget
// unchanged. Like all edits it publishes a new snapshot; queries in
// flight keep the budgets they started with.
func (t *Timer) SetBudgets(maxTuples, maxPops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.snap.Load()
	nb := *s.base
	if maxTuples > 0 {
		nb.bw = s.base.bw.Rebind(s.d)
		nb.bw.MaxTuples = maxTuples
	}
	if maxPops > 0 {
		nb.bb = s.base.bb.Rebind(s.d)
		nb.bb.MaxPops = maxPops
	}
	ns := *s
	ns.base = &nb
	// Extra-corner baselines copy the base budgets at build time, so
	// already-built slots are stale: hand out fresh lazy slots.
	ns.extra = freshSlots(len(s.extra))
	t.snap.Store(&ns)
}

// EndpointSlack is an endpoint slack at one FF's D pin. Corner is the
// delay corner the slack was computed at; for a multi-corner sweep it
// is the critical corner of that endpoint.
type EndpointSlack struct {
	FF     model.FFID
	Slack  model.Time
	Valid  bool
	Corner model.Corner
}

// PreCPPRSlacks returns the conventional (pre-CPPR) graph-based endpoint
// slacks for the mode at the base corner — the numbers a timer without
// pessimism removal would report, used to quantify removed pessimism.
// The arrival windows are maintained incrementally across SetArcDelay
// edits and shared by every query on the same snapshot.
func (t *Timer) PreCPPRSlacks(mode model.Mode) []EndpointSlack {
	out, _ := t.PreCPPRSlacksAt(model.BaseCorner, mode)
	return out
}

// PreCPPRSlacksAt is PreCPPRSlacks at one delay corner. For extra
// corners the arrival windows come from that corner's engines, built on
// first use and cached on the snapshot.
func (t *Timer) PreCPPRSlacksAt(c model.Corner, mode model.Mode) ([]EndpointSlack, error) {
	s := t.snap.Load()
	if c < 0 || int(c) >= s.numCorners() {
		return nil, qerr.Invalid("corner %d out of range (design has %d corners)", int32(c), s.numCorners())
	}
	ce := s.corner(c)
	raw := sta.EndpointSlacks(ce.d, ce.pre.AT(), mode)
	out := make([]EndpointSlack, len(raw))
	for i, sl := range raw {
		out[i] = EndpointSlack{FF: sl.FF, Slack: sl.Slack, Valid: sl.Valid, Corner: c}
	}
	return out, nil
}

// SetArcDelay performs a what-if edit: it publishes a new snapshot whose
// design has the delay window of the arc from -> to updated, refreshing
// derived state incrementally (graph arrivals via dirty-cone
// propagation; clock-tree credits and launch-arc caches only when the
// edit touches them). The caller's original design is never mutated —
// the snapshot's design is a copy-on-write clone. Subsequent queries
// reflect the edit exactly, with results identical to a freshly built
// Timer on the edited design; queries already in flight complete on the
// pre-edit snapshot.
func (t *Timer) SetArcDelay(from, to model.PinID, delay model.Window) error {
	return t.SetArcDelayAt(model.BaseCorner, from, to, delay)
}

// SetArcDelayAt is SetArcDelay at one delay corner. Corners are
// independent, complete delay sets: editing one corner never perturbs
// the timing of any other, and only the edited corner's derived state
// is invalidated (for an extra corner, its engines rebuild lazily on
// the next query that selects it).
//
// In hierarchical mode (NewHierTimer) from and to address the FLAT
// design: an edit on a kept arc forwards to the reduced graph, and an
// edit inside an extracted block re-extracts only that block's
// macromodel at the edited corner, journaling the changed boundary
// windows.
func (t *Timer) SetArcDelayAt(c model.Corner, from, to model.PinID, delay model.Window) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap.Load().hier != nil {
		return t.setArcDelayAtHierLocked(c, from, to, delay)
	}
	return t.setArcDelayAtLocked(c, from, to, delay)
}

// setArcDelayAtLocked applies an edit addressed in the snapshot
// design's own pin space (the reduced design, in hierarchical mode).
// Caller holds t.mu.
func (t *Timer) setArcDelayAtLocked(c model.Corner, from, to model.PinID, delay model.Window) error {
	s := t.snap.Load()
	if c < 0 || int(c) >= s.numCorners() {
		return fmt.Errorf("cppr: corner %d out of range (design has %d corners)", int32(c), s.numCorners())
	}
	ai := s.d.ArcBetween(from, to)
	if ai < 0 {
		return fmt.Errorf("cppr: no arc %q -> %q", s.d.PinName(from), s.d.PinName(to))
	}
	if c != model.BaseCorner {
		nd, err := s.d.WithArcDelayAt(c, ai, delay)
		if err != nil {
			return err
		}
		ns := *s
		ns.d = nd
		ns.extra = make([]*lazyCorner, len(s.extra))
		copy(ns.extra, s.extra)
		// The fresh slot rebuilds the corner's engines — job cache
		// included — on next use; every other corner's caches stay
		// live. The edit is journaled so the carried query memo can
		// invalidate exactly the edited corner's reports (other
		// corners' entries survive as cone skips).
		ns.extra[c-1] = &lazyCorner{}
		journal := s.journal.Append(c, from, to)
		ns.journal, ns.seq = journal, journal.Seq()
		t.snap.Store(&ns)
		return nil
	}
	nd := s.d.CloneWithArcs()
	pre := s.base.pre.CloneFor(nd)
	if err := pre.SetArcDelay(ai, delay); err != nil {
		return err
	}
	pre.Flush()
	var ns *snapshot
	if s.d.IsClockPin(from) {
		// Clock arcs change arrivals/credits cached in the lca tree;
		// CK->Q edits change the launch-delay caches inside each engine.
		// Full rebuild on the edited design, preserving budgets. The
		// fresh base tree has its own shape, so extra corners rebuild
		// too rather than mixing shapes within one snapshot. The fresh
		// snapshot also drops every memo and resets the edit journal:
		// clock-path changes are outside the cone-invalidation model.
		ns = newSnapshot(nd, s.filter, s.base.bw.MaxTuples, s.base.bb.MaxPops, pre, s.ctr, s.crprDefault)
		ns.hier = s.hier
	} else {
		ns = s.rebind(nd, pre, from, to)
	}
	t.snap.Store(ns)
	return nil
}

// ApplySDC applies a constraint set: the clock period and io-delay
// overrides rebuild the timer's design, and false-path exceptions are
// installed as a candidate filter consulted by subsequent AlgoLCA
// queries. The rebuilt design is returned (the new snapshot uses it).
func (t *Timer) ApplySDC(c *sdc.Constraints) (*model.Design, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.snap.Load()
	if s.hier != nil {
		// Hierarchical mode: constraints transform the flat design and
		// the result is re-elaborated (see hier.go).
		return t.applySDCHierLocked(s, c)
	}
	nd, filt, err := c.Apply(s.d)
	if err != nil {
		return nil, err
	}
	// An unstated set_crpr_mode keeps the previously installed default.
	crpr := s.crprDefault
	if c.CRPRSet {
		crpr = c.CRPR
	}
	t.noteSDCKnobs(s, c)
	// Constraints change slacks globally (period, io delays, derates,
	// filter), so the fresh snapshot drops every cache: job caches, query
	// memo, and the edit journal all start over. Apply itself carries the
	// extra-corner delay tables (transformed like the base corner) onto
	// the rebuilt design.
	t.snap.Store(newSnapshot(nd, filt, s.base.bw.MaxTuples, s.base.bb.MaxPops, nil, s.ctr, crpr))
	return nd, nil
}

// noteSDCKnobs bumps the signoff-knob usage counters for one ApplySDC.
func (t *Timer) noteSDCKnobs(s *snapshot, c *sdc.Constraints) {
	if c.HasUncertainty[model.Setup] || c.HasUncertainty[model.Hold] {
		s.ctr.sdcUncertainty.Add(1)
	}
	if c.HasDerate() {
		s.ctr.sdcDerate.Add(1)
	}
	if c.Ideal {
		s.ctr.sdcIdealClock.Add(1)
	}
	if len(c.InputDelay)+len(c.OutputDelay) > 0 {
		s.ctr.sdcIODelay.Add(1)
	}
	if c.CRPRSet {
		s.ctr.sdcCRPRMode.Add(1)
	}
}

// PostCPPRSlacksCtx computes the exact post-CPPR worst slack at every FF
// endpoint in O(nD) — a full pessimism-removed signoff summary (compare
// PreCPPRSlacks to quantify removed pessimism per endpoint). The query's
// Mode, Threads, Corners and capture filter are honoured; K and
// Algorithm are ignored (the sweep always runs on the LCA engine). A
// multi-corner query sweeps every selected corner — spread over the
// executor pool under the Timer's Parallelism budget — and merges to the
// pointwise worst (minimum) slack per endpoint, recording each test's
// critical corner. Cancellation and panic containment follow Run.
func (t *Timer) PostCPPRSlacksCtx(ctx context.Context, q Query) (out []EndpointSlack, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, qerr.FromPanic("cppr.PostCPPRSlacks", r)
		}
	}()
	s := t.snap.Load()
	q.Algorithm = AlgoLCA
	if err := s.normalize(&q); err != nil {
		return nil, err
	}
	par := t.Parallelism()
	q.Threads = par.threadsFor(q)
	corners := q.Corners.List()
	byCorner := make([][]sta.EndpointSlack, len(corners))
	errs := make([]error, len(corners))
	forCorners(len(corners), par.workers(), nil, func(i int, tc *sched.TC) {
		copts := s.coreOpts(q)
		copts.Exec = tc
		raw, err := s.corner(corners[i]).engine.EndpointSlacksCPPR(ctx, copts)
		if err != nil {
			errs[i] = err
			return
		}
		conv := make([]sta.EndpointSlack, len(raw))
		for j, sl := range raw {
			conv[j] = sta.EndpointSlack{FF: sl.FF, Slack: sl.Slack, Valid: sl.Valid, Corner: corners[i]}
		}
		byCorner[i] = conv
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := sta.MergeWorstSlacks(corners, byCorner)
	out = make([]EndpointSlack, len(merged))
	for i, sl := range merged {
		out[i] = EndpointSlack{FF: sl.FF, Slack: sl.Slack, Valid: sl.Valid, Corner: sl.Corner}
	}
	return out, nil
}
