// Package core implements the CPPR algorithm of the paper: top-k
// post-CPPR critical path generation by enumerating the clock-tree depths
// of launching/capturing LCA nodes instead of flip-flop pairs
// (Algorithms 1–6).
//
// The engine runs D+2 independent candidate-generation jobs — one per
// clock-tree level (Definition 4), one for self-loop candidates
// (Definition 5), and one for primary-input candidates (Definition 6) —
// and reduces their outputs to the global top-k with a bounded min-max
// heap (Algorithm 6). Jobs are parallelised across a worker pool with
// per-worker O(n) scratch, giving the paper's O(T(n+k)+kp) space shape.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fastcppr/internal/faultinject"
	"fastcppr/internal/lca"
	"fastcppr/internal/mmheap"
	"fastcppr/internal/qerr"
	"fastcppr/internal/sched"
	"fastcppr/internal/sta"
	"fastcppr/model"
)

// Options configures a top-k query.
type Options struct {
	// K is the number of post-CPPR critical paths to report.
	K int
	// Mode selects setup or hold analysis.
	Mode model.Mode
	// Threads bounds worker parallelism; <= 0 uses GOMAXPROCS. Ignored
	// when Exec is set — the pool's size is the parallelism budget.
	Threads int
	// Exec, when non-nil, is the work-stealing worker context the query
	// runs under: candidate-generation jobs are spawned as stealable
	// tasks onto the caller's sched.Pool instead of dedicated goroutines,
	// so one pool load-balances jobs across every in-flight query (the
	// batch executor's (query × corner) units). The calling task
	// help-waits, so a unit never parks a pool worker.
	Exec *sched.TC
	// PropThreads bounds intra-job kernel parallelism: above 1, sparse
	// propagation runs under the partitioned frontier kernel
	// (sta.Prop.RunSparseParallel) with this many threads. <= 0 lets the
	// engine derive it (standalone queries split Threads across jobs;
	// pool-run queries keep 1 — the pool is already saturated by jobs).
	// Results are bit-identical at any setting.
	PropThreads int
	// IncludePOs adds output-check paths at constrained primary outputs
	// as an extra candidate class (extension beyond the paper, which
	// evaluates FF tests only). PO paths carry no credit.
	IncludePOs bool
	// FilterCapture restricts the query to paths captured by CaptureFF
	// (report_timing -to style). When false (default), all endpoints
	// are analysed.
	FilterCapture bool
	CaptureFF     model.FFID
	// CRPR selects the credit semantics: CRPRSamePin (default, the
	// paper's model) credits the window width at the last common clock
	// pin; CRPRSameTransition additionally zeroes the credit of
	// launch/capture pairs whose clock pins differ in inversion parity
	// (their edges disagree at every common ancestor). Parity-mismatched
	// same-domain pairs then route through the cross-parity job instead
	// of the level jobs.
	CRPR model.CRPRMode
	// DisableGlobalBound turns off cold-run pruning: the cross-job stop
	// on the shared k-th-best slack, the a-priori witness bound, and the
	// sparse kernels' required-time bound (results are identical either
	// way, only the amount of skipped work changes). Memoized runs set
	// it, so the job cache stores full candidate streams.
	DisableGlobalBound bool
	// DenseKernel switches candidate propagation from the sparse
	// frontier kernel (epoch reset + worklist over the seeded cone) back
	// to the dense full-topological-order kernel. Verification/ablation
	// knob: the two kernels produce byte-identical reports, only the
	// amount of work differs. The differential battery runs both.
	DenseKernel bool
	// ExcludeLaunchFF / ExcludeCaptureFF / ExcludeLaunchPin implement
	// false-path exceptions at source/endpoint granularity (sdc.Filter):
	// excluded launches are never seeded and excluded captures never
	// produce candidates, which prunes soundly — the candidate universe
	// itself shrinks, so the top-k coverage bounds are unaffected.
	ExcludeLaunchFF  []bool
	ExcludeCaptureFF []bool
	ExcludeLaunchPin map[model.PinID]bool
}

// launchExcluded reports whether FF i may not launch paths.
func (o *Options) launchExcluded(i int) bool {
	return o.ExcludeLaunchFF != nil && o.ExcludeLaunchFF[i]
}

// captureExcluded reports whether FF i may not capture paths.
func (o *Options) captureExcluded(i int) bool {
	if o.FilterCapture && model.FFID(i) != o.CaptureFF {
		return true
	}
	return o.ExcludeCaptureFF != nil && o.ExcludeCaptureFF[i]
}

// Stats reports work counters from one top-k query.
type Stats struct {
	// Jobs is the number of candidate-generation jobs (D+2).
	Jobs int
	// Candidates is the number of path candidates produced across all
	// jobs before depth filtering.
	Candidates int
	// Kept is the number of candidates surviving their job's filter
	// (exact LCA depth, self-loop, or PI membership).
	Kept int
	// Reconstructed counts full pin-sequence reconstructions performed.
	Reconstructed int
}

// Result is a ranked top-k path report.
type Result struct {
	Paths []model.Path
	Stats Stats
}

// Engine answers top-k post-CPPR path queries for one design. It is
// immutable after construction and safe for concurrent queries.
type Engine struct {
	d    *model.Design
	tree *lca.Tree
	// ckq caches each FF's clock-to-Q delay window.
	ckq []model.Window
	// pool recycles per-worker scratch (candidate heap plus a pooled
	// propagation array pair) across queries, so batch workloads do not
	// re-allocate O(n) scratch per query. Shared by Rebind copies.
	pool *sync.Pool
	// bounds holds the cold-run bound tables per mode (bound.go), built
	// on the engine's first cold query in that mode.
	bounds *[2]modeBounds
}

// NewEngine preprocesses d (clock-tree structures, CK->Q lookup).
func NewEngine(d *model.Design) *Engine {
	return NewEngineWithTree(d, lca.New(d))
}

// NewEngineWithTree is NewEngine reusing an existing lca.Tree.
func NewEngineWithTree(d *model.Design, tree *lca.Tree) *Engine {
	return newEngine(d, tree, &sync.Pool{New: func() any { return &scratch{heap: mmheap.NewKey[*cand]()} }})
}

// newEngine builds an Engine over d and tree drawing scratch from pool.
func newEngine(d *model.Design, tree *lca.Tree, pool *sync.Pool) *Engine {
	e := &Engine{d: d, tree: tree, ckq: make([]model.Window, len(d.FFs)), pool: pool, bounds: new([2]modeBounds)}
	for i := range d.FFs {
		// The model guarantees Q is driven exactly by the CK->Q arc.
		ai := d.FanIn(d.FFs[i].Output)[0]
		e.ckq[i] = d.Arcs[ai].Delay
	}
	return e
}

// Rebind returns an Engine over nd that reuses e's clock-tree structures
// and scratch pool. nd must differ from e's design only in non-clock arc
// delays — the precondition under which the shared lca.Tree (and its
// per-level tables) stays valid. The CK->Q cache is rebuilt from nd's
// arc table (CK->Q arcs launch from clock pins, so they are unchanged by
// that precondition, but rebuilding keeps the cache self-consistent).
func (e *Engine) Rebind(nd *model.Design) *Engine {
	return newEngine(nd, e.tree, e.pool)
}

// Sibling returns an Engine over nd using tree for its clock-tree
// structures while sharing e's scratch pool. Unlike Rebind it accepts a
// different delay corner: nd may differ from e's design in any arc
// delay (clock arcs included) as long as tree matches nd — typically
// tree is Derive'd from e's tree, so the corners share the clock-tree
// shape and the engines share per-worker scratch across corner queries.
func (e *Engine) Sibling(nd *model.Design, tree *lca.Tree) *Engine {
	return newEngine(nd, tree, e.pool)
}

// Design returns the engine's design.
func (e *Engine) Design() *model.Design { return e.d }

// Tree returns the engine's clock-tree structures.
func (e *Engine) Tree() *lca.Tree { return e.tree }

// noGroupQuery is the at_auto query group used by the ungrouped searches
// (self-loop and PI jobs): it never equals a tuple group, so at_auto
// degenerates to at(u) exactly as Algorithms 3 and 4 prescribe.
const noGroupQuery int32 = -2

// cand is an implicitly-represented path in a job's search (Algorithm 5):
// a parent path plus one deviation edge. The full pin sequence is the
// backwalk from pos along from-pointers, the deviation edge pos->devTo,
// then the parent's path from devTo onward.
type cand struct {
	slack  model.Time
	pos    model.PinID
	parent *cand
	// devTo is the head u of the deviation edge pos->u; NoPin for the
	// root candidate of an endpoint.
	devTo model.PinID
	capFF model.FFID
	// gid is the capture group for at_auto queries (noGroupQuery for
	// ungrouped jobs).
	gid int32
}

// jobOut is a filtered candidate leaving a job: its exact post-CPPR slack
// plus everything needed to materialise a model.Path if it survives the
// global selection.
type jobOut struct {
	slack    model.Time
	job, idx int
	capFF    model.FFID
	launch   model.PinID // launching CK pin or PI
	lcaDepth int
	credit   model.Time
	chain    *cand
	pins     []model.PinID // filled on acceptance into the global heap, or when cached
}

// scratch is per-worker reusable state. The candidate heap is the
// key-specialised min-max heap: candidate slacks are its int64 keys,
// rootTie and deviationTie its tie keys.
// The propagation arrays come from the sta package's shared pool; the
// per-level group/credit tables live on the lca.Tree, computed once and
// shared by all workers. done carries the query's cancellation signal
// into the job bodies so their per-FF loops can bail out cooperatively.
type scratch struct {
	prop *sta.Prop
	heap *mmheap.KeyHeap[*cand]
	done <-chan struct{}
	// slacks/valid are the per-job endpoint sweep buffers of
	// EndpointSlacksCPPR, kept on the scratch so pool reuse amortises
	// their O(#FFs) allocation across jobs and queries.
	slacks []model.Time
	valid  []bool
}

// endpointBuffers returns the scratch's slacks/valid arrays sized for n
// endpoints, growing them on first use.
func (s *scratch) endpointBuffers(n int) ([]model.Time, []bool) {
	if cap(s.slacks) < n {
		s.slacks = make([]model.Time, n)
		s.valid = make([]bool, n)
	}
	return s.slacks[:n], s.valid[:n]
}

// getScratch checks a scratch out of the engine's pool and arms it with
// the query's cancellation signal.
func (e *Engine) getScratch(done <-chan struct{}) *scratch {
	s := e.pool.Get().(*scratch)
	s.prop = sta.GetProp()
	s.done = done
	return s
}

// putScratch returns s (and its pooled Prop) for reuse. Jobs Reset both
// before use, so recycling after a contained panic is safe.
func (e *Engine) putScratch(s *scratch) {
	sta.PutProp(s.prop)
	s.prop = nil
	s.done = nil
	e.pool.Put(s)
}

// canceled reports whether the query was canceled. Safe with a nil done.
func (s *scratch) canceled() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// cancelStride is how many iterations of a per-FF or per-pin loop run
// between cooperative cancellation checks, bounding cancel latency
// without measurable steady-state cost.
const cancelStride = 2048

// resetProp prepares the worker's propagation arrays for one job under
// the selected kernel: an O(1) epoch bump either way, with the sparse
// kernel additionally binding the design's topological order so seeding
// Offers feed the frontier. A cold sparse run (gb non-nil, global bound
// enabled) also arms spec's required-time bound at the query's current
// limit, so the kernel drops every tuple that cannot lead to a path
// within it; the dense reference kernel never prunes.
func (e *Engine) resetProp(s *scratch, spec jobSpec, opts *Options, gb *globalBound) {
	if opts.DenseKernel {
		s.prop.Reset(e.d.NumPins())
		return
	}
	s.prop.ResetFor(e.d)
	if gb != nil && !opts.DisableGlobalBound {
		if b, ok := gb.limit(); ok {
			s.prop.SetBound(e.modeBounds(opts.Mode).jobReq(spec), b)
		}
	}
}

// runProp propagates the seeded tuples under the selected kernel. With
// PropThreads above 1 the sparse kernel runs partitioned across barrier
// blocks; tuples are bit-identical at any thread count, so the knob
// changes wall-clock only.
func (e *Engine) runProp(s *scratch, setup bool, opts *Options) {
	switch {
	case opts.DenseKernel:
		s.prop.RunCtx(e.d, setup, s.done)
	case opts.PropThreads > 1:
		s.prop.RunSparseParallel(e.d, setup, s.done, opts.PropThreads)
	default:
		s.prop.RunSparse(e.d, setup, s.done)
	}
}

// globalBound is a cold query's limit on useful slacks: the smaller of
// the a-priori witness bound B0 (prior, fixed before the jobs start; see
// bound.go) and the live global k-th best slack, published once the
// shared selection heap is full. Jobs stop popping when their next
// candidate's slack strictly exceeds the limit, and their sparse runs
// drop tuples whose every path would: such candidates (and everything
// after them in their job's slack order) can never enter the global
// top-k, so pruning on the limit cannot change results — it only skips
// provably useless work. The live bound tightens as jobs complete, so
// the amount of skipped work varies run to run, but the output does not.
// The zero value is unlimited.
type globalBound struct {
	val      atomic.Int64
	set      atomic.Bool
	prior    model.Time
	hasPrior bool
}

// limit returns the current limit, or ok=false while there is none.
func (g *globalBound) limit() (model.Time, bool) {
	if !g.set.Load() {
		return g.prior, g.hasPrior
	}
	v := model.Time(g.val.Load())
	if g.hasPrior && g.prior < v {
		return g.prior, true
	}
	return v, true
}

func (g *globalBound) publish(v model.Time) {
	g.val.Store(int64(v))
	g.set.Store(true)
}

// derivePropThreads resolves PropThreads when the caller left it
// automatic: a standalone query with more threads than jobs hands each
// job the leftover parallelism for its propagation kernel; pool-run
// queries keep serial kernels (sibling jobs and units already saturate
// the pool). Results are identical either way.
func derivePropThreads(opts *Options, numJobs int) {
	if opts.PropThreads > 0 {
		return
	}
	opts.PropThreads = 1
	if opts.Exec != nil || opts.DenseKernel || numJobs == 0 {
		return
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > numJobs {
		opts.PropThreads = threads / numJobs
	}
}

// forEachJob runs body(s, j) exactly once for every job index in
// [0, numJobs) under ctx, containing panics as a *qerr.InternalError
// reported against site. The first failure cancels a derived context so
// the remaining jobs stop promptly. Two scheduling regimes:
//
//   - opts.Exec set: each job is spawned as one stealable task on the
//     caller's work-stealing pool and the calling task help-waits, so
//     jobs of concurrent queries share one load-balanced worker set and
//     a waiting unit never parks a pool worker.
//   - otherwise: min(Threads, numJobs) dedicated goroutines drain the
//     job list through an atomic counter (the standalone query shape).
//
// Either way each body invocation owns a scratch checked out of the
// engine's pool — per worker in goroutine mode, per task in pool mode —
// so a stolen job never cold-allocates its O(n) propagation arrays.
// body must tolerate running concurrently with itself; output
// determinism comes from the callers' order-insensitive merges. The
// error is the first failure, else the caller's cancellation.
func (e *Engine) forEachJob(ctx context.Context, opts *Options, numJobs int, site, fire string, body func(s *scratch, j int)) error {
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}
	done := qctx.Done()
	contain := func(j int) {
		defer func() {
			if r := recover(); r != nil {
				fail(qerr.FromPanic(site, r))
			}
		}()
		s := e.getScratch(done)
		defer e.putScratch(s)
		if s.canceled() {
			return
		}
		faultinject.Fire(fire)
		body(s, j)
	}
	if tc := opts.Exec; tc != nil {
		g := tc.Pool().NewGroup()
		for j := 0; j < numJobs; j++ {
			j := j
			tc.Spawn(g, func(*sched.TC) { contain(j) })
		}
		g.Wait(tc)
	} else {
		threads := opts.Threads
		if threads <= 0 {
			threads = runtime.GOMAXPROCS(0)
		}
		if threads > numJobs {
			threads = numJobs
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Contain invariant panics (negative deviation cost,
				// deviation head off parent path, or anything else): one
				// poisoned design must fail its query, not the process.
				defer func() {
					if r := recover(); r != nil {
						fail(qerr.FromPanic(site, r))
					}
				}()
				s := e.getScratch(done)
				defer e.putScratch(s)
				for {
					j := int(next.Add(1) - 1)
					if j >= numJobs || s.canceled() {
						return
					}
					faultinject.Fire(fire)
					body(s, j)
				}
			}()
		}
		wg.Wait()
	}
	if failErr != nil {
		return failErr
	}
	// Check the caller's context, not qctx: qctx is also canceled by our
	// own deferred cancel and by fail().
	return qerr.FromContext(ctx)
}

// TopPaths returns the global top-k post-CPPR critical paths
// (Algorithm 1). The context bounds the query: cancellation or deadline
// expiry returns an error matching qerr.ErrCanceled /
// qerr.ErrDeadlineExceeded within a bounded number of loop iterations,
// and a panic in any worker is contained and returned as a
// *qerr.InternalError instead of crashing the process.
func (e *Engine) TopPaths(ctx context.Context, opts Options) (Result, error) {
	return e.topPaths(ctx, opts, nil)
}

// topPaths is the one top-k procedure behind TopPaths (mc == nil) and
// TopPathsMemo. Its jobs differ only in how each produces its filtered
// candidates: a cold job runs under the shared global bound and leaves
// pins to be reconstructed on acceptance, a cached job (memoJob) serves,
// patches or re-runs with its pins already materialised.
func (e *Engine) topPaths(ctx context.Context, opts Options, mc *MemoCtx) (Result, error) {
	if err := qerr.FromContext(ctx); err != nil {
		return Result{}, err
	}
	k := opts.K
	if k <= 0 || len(e.d.FFs) == 0 {
		return Result{}, nil
	}
	jobs := e.jobPlan(opts)
	numJobs := len(jobs)
	derivePropThreads(&opts, numJobs)

	// Global selection (Algorithm 6): a bounded min-max heap over all
	// filtered candidates under the total order (slack, job, idx), which
	// makes the surviving set independent of job completion order and
	// therefore of the thread count.
	global := mmheap.New(func(a, b *jobOut) bool {
		if a.slack != b.slack {
			return a.slack < b.slack
		}
		if a.job != b.job {
			return a.job < b.job
		}
		return a.idx < b.idx
	})
	var bound globalBound
	if mc == nil && !opts.DisableGlobalBound {
		bound.prior, bound.hasPrior = e.priorBound(&opts)
	}
	var mu sync.Mutex
	var candidates, kept, reconstructed atomic.Int64
	err := e.forEachJob(ctx, &opts, numJobs, "core.TopPaths", "core.worker", func(s *scratch, j int) {
		var outs []*jobOut
		var produced int
		if mc == nil {
			outs, produced = e.runJob(s, jobs[j], j, k, opts, &bound)
		} else {
			var rebuilt int
			outs, produced, rebuilt = e.memoJob(s, jobs[j], j, k, opts, mc)
			reconstructed.Add(int64(rebuilt))
		}
		candidates.Add(int64(produced))
		kept.Add(int64(len(outs)))
		mu.Lock()
		defer mu.Unlock()
		for _, o := range outs {
			// Cold outputs materialise their pins only on acceptance,
			// while this worker's propagation arrays are still intact.
			if global.PushBounded(o, k) && o.pins == nil {
				o.pins = e.reconstruct(s.prop, o.chain)
				reconstructed.Add(1)
			}
		}
		if global.Len() >= k {
			if m, ok := global.Max(); ok {
				bound.publish(m.slack)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}

	paths := make([]model.Path, 0, global.Len())
	for {
		o, ok := global.PopMin()
		if !ok {
			break
		}
		p := e.materialise(opts.Mode, o)
		if mc != nil {
			// Cached pin slices are shared across queries; reports own
			// their pins, so hand out a copy.
			p.Pins = append([]model.PinID(nil), p.Pins...)
		}
		paths = append(paths, p)
	}
	return Result{
		Paths: paths,
		Stats: Stats{
			Jobs:          numJobs,
			Candidates:    int(candidates.Load()),
			Kept:          int(kept.Load()),
			Reconstructed: int(reconstructed.Load()),
		},
	}, nil
}

// materialise converts an accepted jobOut into a model.Path.
func (e *Engine) materialise(mode model.Mode, o *jobOut) model.Path {
	p := model.Path{
		Mode:      mode,
		Pins:      o.pins,
		CaptureFF: o.capFF,
		Slack:     o.slack,
		Credit:    o.credit,
		PreSlack:  o.slack - o.credit,
		LCADepth:  o.lcaDepth,
		LaunchFF:  model.NoFF,
	}
	if e.d.Pins[o.launch].Kind == model.FFClock {
		p.LaunchFF = e.d.Pins[o.launch].FF
	}
	return p
}

// jobKind classifies a candidate-generation job.
type jobKind uint8

const (
	jobLevel    jobKind = iota // getPathsAtLCALevel(d) — Definition 4
	jobSelfLoop                // getPathsFromSelfLoops — Definition 5
	jobPI                      // getPathsFromPIs — Definition 6
	jobCross                   // cross-domain pairs ("level -1", multi-domain extension)
	jobPO                      // output checks at constrained POs (extension)
)

// jobSpec is one entry of a query's job plan.
type jobSpec struct {
	kind  jobKind
	level int // for jobLevel
}

// jobPlan lists the candidate-generation jobs for a query: one per clock
// level, self-loop and PI jobs, plus the optional cross-domain and PO
// jobs.
func (e *Engine) jobPlan(opts Options) []jobSpec {
	jobs := make([]jobSpec, 0, e.d.Depth+4)
	for d := 0; d < e.d.Depth; d++ {
		// A depth where no FF pair has its exact clock LCA generates zero
		// candidates: the level job would propagate the full cone and then
		// filter everything. Skip it. The dense reference kernel keeps the
		// full plan (the replaced kernel's behaviour), so the differential
		// battery also proves the skip exact.
		if !opts.DenseKernel && !e.tree.LevelActive(d) {
			continue
		}
		jobs = append(jobs, jobSpec{kind: jobLevel, level: d})
	}
	jobs = append(jobs, jobSpec{kind: jobSelfLoop}, jobSpec{kind: jobPI})
	// The zero-credit job covers cross-domain pairs and, under
	// same_transition on parity-mixed trees, same-domain pairs whose
	// clock parities differ (both carry no credit).
	if len(e.d.Roots) > 1 || (opts.CRPR == model.CRPRSameTransition && e.tree.ParityMixed()) {
		jobs = append(jobs, jobSpec{kind: jobCross})
	}
	if opts.IncludePOs && !opts.FilterCapture {
		for i := range e.d.POs {
			if e.d.POConstrained[i] {
				jobs = append(jobs, jobSpec{kind: jobPO})
				break
			}
		}
	}
	return jobs
}

// runJob executes one candidate-generation job in its three phases —
// seed, propagate, collect — returning the filtered candidates and the
// number produced before filtering. The phase split is what the patched
// recompute path builds on: a retained propagation replaces the first
// two phases and runJobOn replays only the collect phase against it.
func (e *Engine) runJob(s *scratch, spec jobSpec, j, k int, opts Options, gb *globalBound) ([]*jobOut, int) {
	if !e.seedJob(s, spec, opts, gb) {
		return nil, 0
	}
	e.runProp(s, opts.Mode == model.Setup, &opts)
	return e.collectJob(s, spec, j, k, opts, gb)
}

// jobSlack computes the endpoint slack from the propagated data arrival
// (Algorithm 2 lines 19–22), less the mode's clock uncertainty margin.
// The margin is a constant over all FF captures of the mode, so in-job
// heap ordering and cross-job bounds are unaffected by where it lands;
// applying it here keeps every reported slack signoff-exact. PO checks
// (runPOJob) have no capture clock and carry no uncertainty.
func (e *Engine) jobSlack(setup bool, capArr model.Window, ff *model.FF, dAt model.Time) model.Time {
	if setup {
		return capArr.Early + e.d.Period - ff.Setup - dAt - e.d.Uncertainty[model.Setup]
	}
	return dAt - (capArr.Late + ff.Hold) - e.d.Uncertainty[model.Hold]
}

// poSlack computes the output-check slack of the i-th primary output
// for a data arrival at time dAt, against its required window.
func (e *Engine) poSlack(setup bool, i int, dAt model.Time) model.Time {
	if setup {
		return e.d.PORequired[i].Late - dAt
	}
	return dAt - e.d.PORequired[i].Early
}

// jobTables resolves a job's grouping table and seed universe: the
// per-level cut over FFs below it for level jobs; the domain (or
// domain × parity, under same_transition) grouping over every FF for
// the cross-domain job; no table and every FF for the ungrouped jobs.
// The seed universe is also the job's capture universe: an FF outside a
// grouped job's list has no group under its cut.
func (e *Engine) jobTables(spec jobSpec, opts Options) (*lca.LevelTables, []model.FFID) {
	switch {
	case spec.kind == jobLevel:
		return e.tree.SharedLevel(spec.level), e.tree.LevelFFs(spec.level)
	case spec.kind != jobCross:
		return nil, e.tree.AllFFs()
	case opts.CRPR == model.CRPRSameTransition:
		return e.tree.SharedCrossParity(), e.tree.AllFFs()
	default:
		return e.tree.SharedCrossDomain(), e.tree.AllFFs()
	}
}

// ffSeed returns the tuple spec seeds at FF i's Q pin, if any: the
// launch clock arrival plus CK->Q, offset by the grouping's credit so
// propagated arrivals rank paths by slack(p, d) (Definition 3) —
// Algorithm 2's credit at the cut for level and cross jobs, Algorithm
// 3's full credit for self-loops, none for PO launches. lt is the job's
// table from jobTables.
func (e *Engine) ffSeed(spec jobSpec, lt *lca.LevelTables, i int, opts *Options) (sta.Tuple, bool) {
	if spec.kind == jobPI || opts.launchExcluded(i) {
		return sta.Tuple{}, false
	}
	ff := &e.d.FFs[i]
	gid := sta.NoGroup
	var credit model.Time
	switch spec.kind {
	case jobLevel, jobCross:
		if gid = e.tree.GroupOf(lt, ff.Clock); gid < 0 {
			return sta.Tuple{}, false // depth(u) <= d
		}
		credit = e.tree.CreditAtDOf(lt, ff.Clock)
	case jobSelfLoop:
		credit = e.tree.Credit(ff.Clock)
	}
	arr := e.tree.Arrival(ff.Clock)
	t := arr.Early + e.ckq[i].Early + credit
	if opts.Mode == model.Setup {
		t = arr.Late + e.ckq[i].Late - credit
	}
	return sta.Tuple{Time: t, From: ff.Clock, Origin: ff.Clock, Group: gid, Valid: true}, true
}

// piSeed returns the tuple spec seeds at the i-th primary input, if
// any: its external arrival (Algorithm 4), for the PI and PO jobs.
func (e *Engine) piSeed(spec jobSpec, i int, opts *Options) (sta.Tuple, bool) {
	pi := e.d.PIs[i]
	if (spec.kind != jobPI && spec.kind != jobPO) || opts.ExcludeLaunchPin[pi] {
		return sta.Tuple{}, false
	}
	t := e.d.PIArrival[i].Early
	if opts.Mode == model.Setup {
		t = e.d.PIArrival[i].Late
	}
	return sta.Tuple{Time: t, From: model.NoPin, Origin: pi, Group: sta.NoGroup, Valid: true}, true
}

// seedJob resets the propagation scratch (under gb's limit, if any; see
// resetProp) and offers spec's seed tuples: FF Q pins in ascending FF
// order, then primary inputs (ffSeed, piSeed). Returns false on
// cancellation.
func (e *Engine) seedJob(s *scratch, spec jobSpec, opts Options, gb *globalBound) bool {
	setup := opts.Mode == model.Setup
	e.resetProp(s, spec, &opts, gb)
	lt, seeds := e.jobTables(spec, opts)
	for si, fi := range seeds {
		if si%cancelStride == 0 && s.canceled() {
			return false
		}
		if t, ok := e.ffSeed(spec, lt, int(fi), &opts); ok {
			s.prop.Offer(e.d.FFs[fi].Output, t.Time, t.From, t.Origin, t.Group, setup)
		}
	}
	for i, pi := range e.d.PIs {
		if t, ok := e.piSeed(spec, i, &opts); ok {
			s.prop.Offer(pi, t.Time, t.From, t.Origin, t.Group, setup)
		}
	}
	return true
}

// roots visits spec's root candidates in the completed propagation in
// s.prop, with their slacks: the best (grouped, for level and cross
// jobs) arrival at each capture FF's D pin, or at each constrained PO
// for the PO job. Returns false on cancellation.
func (e *Engine) roots(s *scratch, spec jobSpec, opts *Options, visit func(pos model.PinID, capFF model.FFID, gid int32, slack model.Time)) bool {
	setup := opts.Mode == model.Setup
	if spec.kind == jobPO {
		// Rank constrained POs against their required windows.
		for i, po := range e.d.POs {
			if !e.d.POConstrained[i] {
				continue
			}
			tup := s.prop.At(po)
			if !tup.Valid {
				continue
			}
			visit(po, model.NoFF, noGroupQuery, e.poSlack(setup, i, tup.Time))
		}
		return true
	}
	lt, seeds := e.jobTables(spec, *opts)
	for si, fi := range seeds {
		if si%cancelStride == 0 && s.canceled() {
			return false
		}
		if opts.captureExcluded(int(fi)) {
			continue
		}
		ff := &e.d.FFs[fi]
		gid := noGroupQuery
		if lt != nil {
			if gid = e.tree.GroupOf(lt, ff.Clock); gid < 0 {
				continue
			}
		}
		tup := s.prop.Auto(ff.Data, gid)
		if !tup.Valid {
			continue
		}
		visit(ff.Data, fi, gid, e.jobSlack(setup, e.tree.Arrival(ff.Clock), ff, tup.Time))
	}
	return true
}

// A job's candidate heap orders by (slack, tie key). A root's tie key is
// its endpoint pin (rootTie), a deviation's its parent's pop index plus
// one, then its side arc's index (deviationTie). The keys are distinct
// within a job and intrinsic to the candidate, so the heap pops
// candidates in one total order whatever else it held: the pops under
// budget k' are the first k' pops under any budget k >= k', and a
// bounded run pops exactly what an unbounded run pops below its bound.
// A child's key exceeds its parent's, so zero-cost deviations still pop
// after their parents.

// rootTie returns the tie key of the root candidate at endpoint pin.
func rootTie(pin model.PinID) uint64 { return uint64(uint32(pin)) }

// deviationTie returns the tie key of the deviation along arc from the
// candidate popped at index parentPop.
func deviationTie(parentPop int, arc int32) uint64 {
	return uint64(parentPop+1)<<32 | uint64(uint32(arc))
}

// collectJob runs spec's top-k pop/deviate loop (Algorithm 5) from its
// root candidates under the job's exactness filter. It reads only
// s.prop and s.heap, so the patched recompute path can aim it at a
// retained propagation.
func (e *Engine) collectJob(s *scratch, spec jobSpec, j, k int, opts Options, gb *globalBound) ([]*jobOut, int) {
	s.heap.Reset()
	if !e.roots(s, spec, &opts, func(pos model.PinID, capFF model.FFID, gid int32, slack model.Time) {
		// Most roots of a small-k job lose to the heap's maximum; check
		// before allocating the candidate.
		if tie := rootTie(pos); s.heap.Admits(int64(slack), tie, k) {
			s.heap.PushBoundedTie(int64(slack), tie, &cand{slack: slack, pos: pos, devTo: model.NoPin, capFF: capFF, gid: gid}, k)
		}
	}) {
		return nil, 0
	}
	return e.popAndFilter(s, j, k, opts, gb, e.jobKeep(spec, opts))
}

// jobKeep returns spec's exactness filter for the pop/deviate loop
// (Algorithm 6): the exact-LCA-depth test for level jobs, the
// domain/parity mismatch test for the cross job, the true-self-loop test,
// and the trivial zero-credit stamp for PI and PO candidates.
func (e *Engine) jobKeep(spec jobSpec, opts Options) func(*jobOut) bool {
	switch spec.kind {
	case jobLevel:
		d := spec.level
		return func(o *jobOut) bool {
			// Exact-depth filter: keep candidates whose LCA depth is d.
			// Cross-domain pairs (no LCA) are handled by their own job,
			// as — under same_transition — are parity-mismatched pairs
			// (their credit is zero at every common ancestor, so the
			// level credit this job applied would overstate it).
			capCK := e.d.FFs[o.capFF].Clock
			if opts.CRPR == model.CRPRSameTransition && e.tree.Parity(o.launch) != e.tree.Parity(capCK) {
				return false
			}
			lcaNode := e.tree.LCA(o.launch, capCK)
			if lcaNode == model.NoPin || e.tree.Depth(lcaNode) != d {
				return false
			}
			o.lcaDepth = d
			o.credit = e.tree.Credit(lcaNode)
			return true
		}
	case jobCross:
		sameTrans := opts.CRPR == model.CRPRSameTransition
		return func(o *jobOut) bool {
			capCK := e.d.FFs[o.capFF].Clock
			if e.tree.SameDomain(o.launch, capCK) &&
				(!sameTrans || e.tree.Parity(o.launch) == e.tree.Parity(capCK)) {
				return false
			}
			o.lcaDepth = -1
			o.credit = 0
			return true
		}
	case jobSelfLoop:
		return func(o *jobOut) bool {
			// Keep true self-loops only.
			if e.d.Pins[o.launch].Kind != model.FFClock || e.d.Pins[o.launch].FF != o.capFF {
				return false
			}
			o.lcaDepth = e.tree.Depth(o.launch)
			o.credit = e.tree.Credit(o.launch)
			return true
		}
	default: // jobPI, jobPO: zero-credit candidates, no further filtering
		return func(o *jobOut) bool {
			o.lcaDepth = -1
			o.credit = 0
			return true
		}
	}
}

// popAndFilter is the top-k pop/deviate loop of Algorithm 5 shared by all
// job kinds: it pops up to k candidates in slack order, pushes each pop's
// deviations back (bounded by the remaining output count), resolves each
// popped candidate's launch point, and applies the job-specific filter.
func (e *Engine) popAndFilter(s *scratch, job, k int, opts Options, gb *globalBound, keep func(*jobOut) bool) ([]*jobOut, int) {
	setup := opts.Mode == model.Setup
	var outs []*jobOut
	produced := 0
	for i := 0; i < k; i++ {
		// Each pop can push O(path length × fan-in) deviations, so the
		// per-pop cancellation check bounds latency here too.
		if s.canceled() {
			break
		}
		kv, ok := s.heap.PopMin()
		if !ok {
			break
		}
		p := kv.V
		// Global-bound pruning: candidates strictly beyond the query's
		// limit (B0, or the k-th best slack once the shared selection
		// holds k paths) — and everything this job would pop after
		// them — can never be selected.
		if !opts.DisableGlobalBound {
			if v, okB := gb.limit(); okB && p.slack > v {
				break
			}
		}
		produced++
		remaining := k - i - 1
		if remaining > 0 {
			e.pushDeviations(s, p, i, remaining, setup)
		}
		o := &jobOut{
			slack:  p.slack,
			job:    job,
			idx:    i,
			capFF:  p.capFF,
			launch: e.launchOf(s.prop, p),
			chain:  p,
		}
		if keep(o) {
			outs = append(outs, o)
		}
	}
	return outs, produced
}

// pushDeviations walks backward from p.pos along from-pointers and pushes
// one deviated candidate per non-path in-edge (Algorithm 5 lines 11–20).
// pop is p's pop index, the first half of its children's tie keys.
func (e *Engine) pushDeviations(s *scratch, p *cand, pop, bound int, setup bool) {
	d := e.d
	u := p.pos
	for {
		if d.IsClockPin(u) {
			return // reached the launching CK pin
		}
		ft := s.prop.Auto(u, p.gid)
		from := ft.From
		for _, ai := range d.FanIn(u) {
			arc := &d.Arcs[ai]
			w := arc.From
			if w == from {
				continue
			}
			wt := s.prop.Auto(w, p.gid)
			if !wt.Valid {
				continue
			}
			var delay, cost model.Time
			if setup {
				delay = arc.Delay.Late
				cost = ft.Time - (wt.Time + delay)
			} else {
				delay = arc.Delay.Early
				cost = wt.Time + delay - ft.Time
			}
			if cost < 0 {
				panic(fmt.Sprintf("core: negative deviation cost %v at %s -> %s",
					cost, d.PinName(w), d.PinName(u)))
			}
			// Cheap pre-check before allocating the candidate: a full
			// heap rejects anything not ordered before its maximum.
			slack := p.slack + cost
			tie := deviationTie(pop, ai)
			if !s.heap.Admits(int64(slack), tie, bound) {
				continue
			}
			s.heap.PushBoundedTie(int64(slack), tie, &cand{
				slack:  slack,
				pos:    w,
				parent: p,
				devTo:  u,
				capFF:  p.capFF,
				gid:    p.gid,
			}, bound)
		}
		if from == model.NoPin {
			return // reached a primary-input seed
		}
		u = from
	}
}

// launchOf resolves the launching pin (CK pin or PI) of a candidate in
// O(1) from the origin tag its prefix tuple carries.
func (e *Engine) launchOf(prop *sta.Prop, p *cand) model.PinID {
	if e.d.IsClockPin(p.pos) {
		return p.pos
	}
	return prop.Auto(p.pos, p.gid).Origin
}

// reconstruct materialises the full pin sequence of a candidate:
// the backwalk of its prefix, then each ancestor's suffix after the
// corresponding deviation edge.
func (e *Engine) reconstruct(prop *sta.Prop, p *cand) []model.PinID {
	// Collect the chain root-first.
	var chain []*cand
	for c := p; c != nil; c = c.parent {
		chain = append(chain, c)
	}
	// chain[len-1] is the root candidate.
	var path []model.PinID
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		prefix := e.backwalk(prop, c.pos, c.gid)
		if c.devTo == model.NoPin {
			path = prefix
			continue
		}
		// Splice: prefix + suffix of current path from devTo onward.
		cut := -1
		for idx, pin := range path {
			if pin == c.devTo {
				cut = idx
				break
			}
		}
		if cut < 0 {
			panic("core: deviation head not on parent path")
		}
		spliced := make([]model.PinID, 0, len(prefix)+len(path)-cut)
		spliced = append(spliced, prefix...)
		spliced = append(spliced, path[cut:]...)
		path = spliced
	}
	return path
}

// backwalk returns the pin sequence from the seed (CK pin or PI) to pos,
// in forward order.
func (e *Engine) backwalk(prop *sta.Prop, pos model.PinID, gid int32) []model.PinID {
	var rev []model.PinID
	u := pos
	for {
		rev = append(rev, u)
		if e.d.IsClockPin(u) {
			break
		}
		t := prop.Auto(u, gid)
		if t.From == model.NoPin {
			break
		}
		u = t.From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EndpointSlacksCPPR computes the exact post-CPPR worst slack of every
// FF test endpoint in O(nD): for each candidate-generation job, the best
// (root-candidate) slack at each capture FF is recorded, and the
// per-endpoint minimum across jobs is taken.
//
// Correctness: for endpoint e with true worst post-CPPR path p* at LCA
// depth d*, every job value at e is >= slack_CPPR of some candidate
// >= slack_CPPR(p*) (the d-PR dominance lemma, PROOFS.md L3), and the
// level-d* job yields exactly slack_CPPR(p*) (L2). Self-loop, PI and
// cross-domain jobs cover the remaining path classes the same way.
//
// This turns the paper's top-k machinery into a full post-CPPR signoff
// summary (per-endpoint WNS) at the cost of a single k=1 query.
//
// Cancellation and panic containment follow TopPaths: the context bounds
// the query and a worker panic returns a *qerr.InternalError.
func (e *Engine) EndpointSlacksCPPR(ctx context.Context, opts Options) ([]EndpointCPPRSlack, error) {
	if err := qerr.FromContext(ctx); err != nil {
		return nil, err
	}
	out := make([]EndpointCPPRSlack, len(e.d.FFs))
	for i := range out {
		out[i].FF = model.FFID(i)
	}
	if len(e.d.FFs) == 0 {
		return out, nil
	}
	opts.K = 1
	jobs := e.jobPlan(opts)
	derivePropThreads(&opts, len(jobs))

	var mu sync.Mutex
	err := e.forEachJob(ctx, &opts, len(jobs), "core.EndpointSlacksCPPR", "core.endpoint.worker", func(s *scratch, j int) {
		if jobs[j].kind == jobPO {
			return // PO endpoints are not FF tests
		}
		slacks, valid := s.endpointBuffers(len(e.d.FFs))
		e.endpointBest(s, jobs[j], opts, slacks, valid)
		if s.canceled() {
			return // partial endpointBest output; don't merge
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range out {
			if valid[i] && (!out[i].Valid || slacks[i] < out[i].Slack) {
				out[i].Slack, out[i].Valid = slacks[i], true
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EndpointCPPRSlack is one endpoint's exact post-CPPR worst slack.
type EndpointCPPRSlack struct {
	FF    model.FFID
	Slack model.Time
	Valid bool
}

// endpointBest runs one job's seeding and propagation and records its
// root-candidate slack (Algorithm 5) at every capture FF into
// slacks/valid.
func (e *Engine) endpointBest(s *scratch, spec jobSpec, opts Options, slacks []model.Time, valid []bool) {
	for i := range valid {
		valid[i] = false
	}
	if !e.seedJob(s, spec, opts, nil) {
		return
	}
	e.runProp(s, opts.Mode == model.Setup, &opts)
	e.roots(s, spec, &opts, func(_ model.PinID, capFF model.FFID, _ int32, slack model.Time) {
		slacks[capFF], valid[capFF] = slack, true
	})
}
