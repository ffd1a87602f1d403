package core

import (
	"context"
	"sync"
	"sync/atomic"

	"fastcppr/internal/sta"
	"fastcppr/model"
)

// MemoMaxK bounds the query K the memoized path accepts: per-job cache
// entries materialise every kept candidate's pin sequence, so their
// retained memory is O(K × path length) per job. Queries beyond the
// bound fall back to the uncached TopPaths.
const MemoMaxK = 1024

// CacheCounters aggregates job-cache effectiveness counters, shared by
// every per-corner JobCache of a timer so Stats() reports one total.
type CacheCounters struct {
	Hits        atomic.Int64 // jobs served from cache
	Misses      atomic.Int64 // jobs executed (no entry, stale entry, or insufficient K)
	Invalidated atomic.Int64 // misses caused by a dirty-cone intersection
	Patched     atomic.Int64 // misses served by patching a retained propagation (subset of Misses)
	coneSkips   atomic.Int64 // hits served across an edit (Outcome ConeSkip)
}

// ConeSkips returns the number of job-cache hits served across an edit
// the journal proved disjoint from the job's cone.
func (c *CacheCounters) ConeSkips() int64 { return c.coneSkips.Load() }

// note counts one job-cache lookup outcome.
func (c *CacheCounters) note(o Outcome) {
	switch o {
	case Hit:
		c.Hits.Add(1)
	case ConeSkip:
		c.Hits.Add(1)
		c.coneSkips.Add(1)
	case Stale:
		c.Misses.Add(1)
		c.Invalidated.Add(1)
	default:
		c.Misses.Add(1)
	}
}

// jobKey identifies a cacheable job result. The plan index is NOT part
// of the key: a job's candidate stream depends only on its kind/level
// and the query knobs below, so an entry stays valid when plan shape
// changes (e.g. IncludePOs toggling) re-number the jobs — the merge
// assigns the current plan index at serve time. K is handled by the
// entry's budget (the enumeration has the prefix property), and Threads
// never affects per-job output. The kernel knob is kept in the key so
// sparse-vs-dense sweeps exercise real runs of both kernels.
type jobKey struct {
	kind  jobKind
	level int
	mode  model.Mode
	dense bool
	// crpr is normalized by jobKeyCRPR: only level and cross jobs
	// depend on the CRPR mode, so self-loop/PI/PO entries are keyed
	// (and therefore shared) across modes.
	crpr model.CRPRMode
}

// jobKeyCRPR returns the CRPR mode a job's cache key carries. Self-loop
// candidates (launch == capture clock pin: parity trivially equal), PI
// launches and PO endpoints (no credit at all) produce identical output
// under either mode, so their keys normalize to CRPRSamePin and one
// cached run serves both.
func jobKeyCRPR(kind jobKind, crpr model.CRPRMode) model.CRPRMode {
	switch kind {
	case jobLevel, jobCross:
		return crpr
	default:
		return model.CRPRSamePin
	}
}

// jobResult is a memoized job run: the number of candidates it produced
// and its kept outputs in pop order, each with its pin sequence already
// materialised (reconstruction needs the producing run's propagation
// arrays, which are gone once the worker moves on) and no candidate
// chain.
//
// Serving smaller budgets is sound by the prefix property: the pop
// sequence under budget k' <= k is exactly the first pops under budget
// k truncated at idx < k' (the candidate heap pops in one total order,
// by slack and then rootTie/deviationTie, and deviation costs are
// non-negative, so the bounded heap's evictions never touch the next
// `remaining` outputs).
// Serving LARGER budgets is sound only from an exhausted run: if the
// job's heap ran dry before its budget (produced < k), no push was ever
// evicted or bound-rejected — an eviction requires the heap to reach
// the remaining-output bound, after which it provably sustains
// full-budget pops — so the result holds the job's complete candidate
// stream and is valid for every k'.
type jobResult struct {
	produced int
	outs     []jobOut
}

// JobCache memoizes candidate-generation job results for one (design
// corner, engine) pair across the queries of a snapshot chain, under the
// JournalCache rule: entries are tagged with the job's seed cone
// (forward data-graph reachability of its launch points), and a job
// output can change only if an edited arc's source pin lies in the cone.
// Next to the entries it keeps each job's retained propagation for the
// patched recompute path (patch.go). Safe for concurrent use.
type JobCache struct {
	jobs *JournalCache[jobKey, jobResult]
	ctr  *CacheCounters
	// ret maps jobs to their retained propagation state. Kept apart
	// from jobs on purpose: a retained propagation is most valuable
	// exactly when its job's entry went stale — it is what turns the
	// re-run into a cone-sized patch. retBytes tracks the retention
	// budget; mu serializes ret's copy-on-write publication.
	mu       sync.Mutex
	ret      atomic.Pointer[map[jobKey]*retainedProp]
	retBytes atomic.Int64
}

// NewJobCache returns an empty cache reporting into ctr (shared across
// the timer's per-corner caches; nil disables counting).
func NewJobCache(ctr *CacheCounters) *JobCache {
	if ctr == nil {
		ctr = &CacheCounters{}
	}
	return &JobCache{jobs: NewJournalCache[jobKey, jobResult](0), ctr: ctr}
}

// Len returns the number of cached job entries.
func (c *JobCache) Len() int { return c.jobs.Len() }

// jobCone returns the data-graph footprint of spec: the set of pins a
// tuple seeded by this job can visit. An arc delay can influence the
// job's output only if the arc's SOURCE is in this set (propagation and
// deviation scanning both read only arcs leaving reached pins), so
// journal validation tests edit sources against it. Clock-arc, CK->Q,
// and constraint changes are outside this model and rebuild the whole
// snapshot (dropping the cache) instead.
func (e *Engine) jobCone(spec jobSpec) *model.PinSet {
	switch spec.kind {
	case jobLevel:
		return e.tree.LevelCone(spec.level)
	case jobPI:
		return e.tree.PICone()
	case jobPO:
		return e.tree.LaunchCone()
	default: // self-loop, cross-domain: the full FF launch universe
		return e.tree.AllCone()
	}
}

// TopPathsMemo is TopPaths with per-job memoization: each
// candidate-generation job's kept outputs are cached in mc.Cache and
// reused across queries on the same snapshot chain whenever the journal
// proves no edit since the entry's watermark can reach the job's cone.
// The merged report is byte-identical to an uncached TopPaths run:
//
//   - cache misses run their job with global-bound pruning disabled, so
//     the stored stream is the job's true ranked candidate prefix
//     rather than a bound-truncated one (the bound depends on job
//     completion order, which a cache must not capture);
//   - the global merge applies the same total order (slack, plan index,
//     pop index) over per-job supersets of what a cold run would
//     contribute — the extra elements all rank beyond the k-th best, so
//     the selected top-k is unchanged (see DESIGN.md §12).
//
// A job whose entry an edit dirtied does not necessarily re-run: when
// the cache retains the job's propagation state and the journal suffix
// since that state consists purely of same-corner data-arc edits, the
// job is served by patching the edits' dirty cone in place and replaying
// only the collect phase (patch.go) — byte-identical output at O(dirty
// cone) cost, counted in CacheCounters.Patched.
//
// Cancellation and panic containment follow TopPaths. Partial (canceled)
// job runs are never stored.
func (e *Engine) TopPathsMemo(ctx context.Context, opts Options, mc MemoCtx) (Result, error) {
	return e.topPaths(ctx, opts, &mc)
}

// memoJob is the cached path's per-job step: serve spec from the
// cache, else patch its retained propagation, else run it in full, and
// store what was computed. It returns the outputs at budget k (pins
// materialised), the produced count a cold run at budget k reports, and
// how many pin sequences it reconstructed. A canceled run yields
// nothing.
func (e *Engine) memoJob(s *scratch, spec jobSpec, j, k int, opts Options, mc *MemoCtx) ([]*jobOut, int, int) {
	cache := mc.Cache
	key := jobKey{kind: spec.kind, level: spec.level, mode: opts.Mode, dense: opts.DenseKernel, crpr: jobKeyCRPR(spec.kind, opts.CRPR)}
	res, outcome := cache.jobs.Lookup(key, k, mc.Journal)
	cache.ctr.note(outcome)
	rebuilt := 0
	if !outcome.Served() {
		// Run at full fidelity: no global bound, whose truncation point
		// depends on sibling-job timing.
		opts.DisableGlobalBound = true
		var ok bool
		if res, ok = e.servePatched(s, cache, key, spec, j, k, opts, mc); ok {
			cache.ctr.Patched.Add(1)
		} else {
			outs, produced := e.runJob(s, spec, j, k, opts, &globalBound{})
			if s.canceled() {
				return nil, 0, 0 // partial stream; do not store or merge
			}
			res = jobResult{produced: produced, outs: e.materialiseOuts(s.prop, outs)}
			e.retainProp(s, cache, key, mc)
		}
		cache.jobs.Store(key, res, k, res.produced < k, mc.Journal, mc.Corner, e.jobCone(spec))
		rebuilt = len(res.outs)
	}
	n := len(res.outs)
	for n > 0 && res.outs[n-1].idx >= k {
		n--
	}
	served := append([]jobOut(nil), res.outs[:n]...)
	outs := make([]*jobOut, n)
	for i := range served {
		served[i].job = j
		outs[i] = &served[i]
	}
	return outs, min(res.produced, k), rebuilt
}

// materialiseOuts returns the cacheable form of a job run's outputs:
// pins reconstructed from prop, candidate chains dropped.
func (e *Engine) materialiseOuts(prop *sta.Prop, outs []*jobOut) []jobOut {
	kept := make([]jobOut, len(outs))
	for i, o := range outs {
		kept[i] = *o
		kept[i].pins = e.reconstruct(prop, o.chain)
		kept[i].chain = nil
	}
	return kept
}
