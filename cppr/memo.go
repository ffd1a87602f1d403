package cppr

import (
	"context"
	"sync/atomic"
	"time"

	"fastcppr/internal/core"
	"fastcppr/internal/qerr"
	"fastcppr/internal/sched"
	"fastcppr/model"
)

// timerCounters aggregates cache-effectiveness counters across a timer's
// whole snapshot chain: the per-corner job caches all report into the
// shared core.CacheCounters, and the per-snapshot query memos into the
// query counters. One instance lives for the life of the Timer and is
// carried from snapshot to snapshot.
type timerCounters struct {
	job         core.CacheCounters
	queryHits   atomic.Int64
	queryMisses atomic.Int64
	// Served-traffic counters. Admitted and shed are reported by the
	// service front end (Timer.NoteServed); degraded and coalesced are
	// counted by the Timer itself as reports leave Run / ReportBatch.
	servedAdmitted  atomic.Int64
	servedShed      atomic.Int64
	servedDegraded  atomic.Int64
	servedCoalesced atomic.Int64
	// Signoff-knob usage counters: how many ApplySDC calls installed
	// each industrial-semantics knob, and how many queries resolved to
	// same_transition credit. They let operators of long-lived services
	// see which semantics their traffic actually exercises.
	sdcUncertainty     atomic.Int64
	sdcDerate          atomic.Int64
	sdcIdealClock      atomic.Int64
	sdcIODelay         atomic.Int64
	sdcCRPRMode        atomic.Int64
	crprSameTransition atomic.Int64
	// Speculation counters: forks counts Timer.Fork calls (including the
	// per-candidate forks inside WhatIf), whatifCandidates the candidate
	// edit sets scored by Timer.WhatIf, and coneSkips the query-memo
	// servings that crossed an edit because the journal proved the
	// entry's cone disjoint from every dirtying edit (job-cache skips
	// are counted in job; Stats reports the sum).
	forks            atomic.Int64
	whatifCandidates atomic.Int64
	coneSkips        atomic.Int64
	// Hierarchy counters: macroExtracted counts distinct macromodel
	// extractions (elaboration and SDC re-elaboration), macroReused the
	// block instances served from the signature cache instead of being
	// extracted, and macroReextracted the single-block re-extractions
	// performed by edits landing inside an extracted block.
	macroExtracted   atomic.Int64
	macroReused      atomic.Int64
	macroReextracted atomic.Int64
}

// queryMemoMax bounds the per-snapshot query-memo size. Reports are
// O(K × path length); a query mix wider than this per edit epoch keeps
// working, it just re-runs evicted shapes (the job cache underneath
// still absorbs most of the cost).
const queryMemoMax = 128

// newQueryMemo returns an empty query memo: whole normalized-query
// reports cached across a snapshot chain under the core.JournalCache
// rule — the cross-call extension of ReportBatch's in-call dedup. Keys are single-corner queries with
// Threads, Timeout and K erased: a top-k report is the k-prefix of any
// larger exact report, so one max-K entry serves every smaller K, and a
// report with fewer paths than its K serves any K. Each entry's
// footprint is its corner's full launch cone: within one journal
// position a normalized query is a pure function of the immutable
// engines, and an entry only crosses an edit when the journal proves
// the edit cannot reach that cone. Rebuilding edits (clock arcs,
// ApplySDC) discard the memo wholesale with the rest of the derived
// state.
func newQueryMemo() *core.JournalCache[Query, Report] {
	return core.NewJournalCache[Query, Report](queryMemoMax)
}

// queryMemoKey normalizes q into its memo key for corner c. Timeout is
// erased alongside Threads: neither changes what a completed report
// contains, only how the run was scheduled.
func queryMemoKey(q Query, c model.Corner) Query {
	q.Threads = 0
	q.Timeout = 0
	q.Corners = CornerBit(c)
	q.K = 0
	return q
}

// execute runs one normalized query against corner c, serving it from
// the snapshot's query memo when possible. Only AlgoLCA reports are
// memoized (the baselines exist for comparison studies, where cached
// timings would mislead), and Query.NoCache bypasses the memo entirely.
// Errors are never cached. A non-nil tc threads the executor context
// down to the engine (see snapshot.runOn).
func (s *snapshot) execute(ctx context.Context, q Query, c model.Corner, tc *sched.TC) (Report, error) {
	if q.Algorithm != AlgoLCA || q.NoCache || s.memo == nil {
		return s.runOn(ctx, q, s.corner(c), tc)
	}
	// The cancellation contract holds even when the answer is free: a
	// canceled query errors, it does not serve from cache.
	if err := qerr.FromContext(ctx); err != nil {
		return Report{}, err
	}
	start := time.Now()
	key := queryMemoKey(q, c)
	if rep, o := s.memo.Lookup(key, q.K, s.journal); o.Served() {
		// A cross-edit serving skips the whole query — job revalidation
		// included — and counts as a cone skip.
		if o == core.ConeSkip {
			s.ctr.coneSkips.Add(1)
		}
		s.ctr.queryHits.Add(1)
		rep = clipReport(rep, q.K)
		rep.Elapsed = time.Since(start)
		return rep, nil
	}
	s.ctr.queryMisses.Add(1)
	ce := s.corner(c)
	rep, err := s.runOn(ctx, q, ce, tc)
	if err != nil {
		return Report{}, err
	}
	s.memo.Store(key, rep, q.K, len(rep.Paths) < q.K, s.journal, c, ce.tree.LaunchCone())
	return rep, nil
}

// TimerStats is Timer.Stats's snapshot of the incremental-machinery
// counters: how much work the edit→requery loop is actually saving.
type TimerStats struct {
	// EditSeq is the current snapshot's edit-journal sequence number:
	// the number of journaled (non-rebuilding) edits since the last full
	// rebuild.
	EditSeq uint64 `json:"edit_seq"`
	// IncrRecomputed is the cumulative number of pin recomputations the
	// incremental graph-arrival engine performed across the snapshot
	// chain — the incremental-substrate work that replaced full
	// repropagations.
	IncrRecomputed int `json:"incr_recomputed"`
	// JobCache* count candidate-generation job memoization outcomes
	// across all corners since the Timer was built. Invalidated is the
	// subset of misses caused by an edit landing inside a cached job's
	// cone.
	JobCacheHits        int64 `json:"job_cache_hits"`
	JobCacheMisses      int64 `json:"job_cache_misses"`
	JobCacheInvalidated int64 `json:"job_cache_invalidated"`
	// JobCachePatched is the subset of misses served by patching the
	// job's retained propagation instead of re-running it from scratch.
	JobCachePatched int64 `json:"job_cache_patched"`
	// QueryMemo* count whole-report memoization outcomes (AlgoLCA
	// queries repeated on an unedited snapshot).
	QueryMemoHits   int64 `json:"query_memo_hits"`
	QueryMemoMisses int64 `json:"query_memo_misses"`
	// Served* are the served-traffic counters of the service front end
	// (internal/serve) and the batch executor. Admitted and shed are
	// reported by the admission controller via NoteServed; degraded
	// counts reports returned with Report.Degraded set, and coalesced
	// counts batch queries served by an execution unit shared with at
	// least one other query.
	ServedAdmitted  int64 `json:"served_admitted"`
	ServedShed      int64 `json:"served_shed"`
	ServedDegraded  int64 `json:"served_degraded"`
	ServedCoalesced int64 `json:"served_coalesced"`
	// Sdc* count ApplySDC calls that installed each signoff knob
	// (clock uncertainty, timing derates, ideal clocks, I/O delays,
	// an explicit CRPR mode); CRPRSameTransition counts queries that
	// resolved to same_transition credit semantics.
	SdcUncertainty     int64 `json:"sdc_uncertainty_applied"`
	SdcDerate          int64 `json:"sdc_derate_applied"`
	SdcIdealClock      int64 `json:"sdc_ideal_clock_applied"`
	SdcIODelay         int64 `json:"sdc_io_delay_applied"`
	SdcCRPRMode        int64 `json:"sdc_crpr_mode_applied"`
	CRPRSameTransition int64 `json:"crpr_same_transition_queries"`
	// Speculation counters: Forks counts Timer.Fork calls (WhatIf's
	// per-candidate forks included), WhatIfCandidates the candidate edit
	// sets scored by Timer.WhatIf, and ConeSkips the cache servings that
	// crossed an edit because the journal proved the entry's cone
	// disjoint from every dirtying edit.
	Forks            int64 `json:"forks"`
	WhatIfCandidates int64 `json:"whatif_candidates"`
	ConeSkips        int64 `json:"cone_skips"`
	// Hierarchy counters (NewHierTimer): MacroExtracted counts distinct
	// macromodel extractions, MacroReused the block instances that
	// shared an already-extracted model (the N-instance reuse win), and
	// MacroReextracted the single-block re-extractions triggered by
	// edits inside an extracted block — the counter that pins "an edit
	// dirties one macromodel, not the global graph".
	MacroExtracted   int64 `json:"macromodels_extracted"`
	MacroReused      int64 `json:"macromodel_reuses"`
	MacroReextracted int64 `json:"macromodel_reextracted"`
}

// Stats reports the timer's incremental-machinery counters. Counters
// accumulate for the life of the Timer (they survive edits and
// rebuilds); EditSeq and IncrRecomputed describe the current snapshot
// chain.
func (t *Timer) Stats() TimerStats {
	s := t.snap.Load()
	return TimerStats{
		EditSeq:             s.seq,
		IncrRecomputed:      s.base.pre.Recomputed(),
		JobCacheHits:        s.ctr.job.Hits.Load(),
		JobCacheMisses:      s.ctr.job.Misses.Load(),
		JobCacheInvalidated: s.ctr.job.Invalidated.Load(),
		JobCachePatched:     s.ctr.job.Patched.Load(),
		QueryMemoHits:       s.ctr.queryHits.Load(),
		QueryMemoMisses:     s.ctr.queryMisses.Load(),
		ServedAdmitted:      s.ctr.servedAdmitted.Load(),
		ServedShed:          s.ctr.servedShed.Load(),
		ServedDegraded:      s.ctr.servedDegraded.Load(),
		ServedCoalesced:     s.ctr.servedCoalesced.Load(),
		SdcUncertainty:      s.ctr.sdcUncertainty.Load(),
		SdcDerate:           s.ctr.sdcDerate.Load(),
		SdcIdealClock:       s.ctr.sdcIdealClock.Load(),
		SdcIODelay:          s.ctr.sdcIODelay.Load(),
		SdcCRPRMode:         s.ctr.sdcCRPRMode.Load(),
		CRPRSameTransition:  s.ctr.crprSameTransition.Load(),
		Forks:               s.ctr.forks.Load(),
		WhatIfCandidates:    s.ctr.whatifCandidates.Load(),
		ConeSkips:           s.ctr.coneSkips.Load() + s.ctr.job.ConeSkips(),
		MacroExtracted:      s.ctr.macroExtracted.Load(),
		MacroReused:         s.ctr.macroReused.Load(),
		MacroReextracted:    s.ctr.macroReextracted.Load(),
	}
}

// NoteServed adds to the served-traffic counters reported by Stats():
// the service front end calls it at admission time with the number of
// requests admitted to this timer and the number shed (load-shedding or
// shutdown refusals). Degraded and coalesced outcomes are counted by
// the Timer itself. Safe for concurrent use; counters survive edits.
func (t *Timer) NoteServed(admitted, shed int64) {
	ctr := t.snap.Load().ctr
	if admitted != 0 {
		ctr.servedAdmitted.Add(admitted)
	}
	if shed != 0 {
		ctr.servedShed.Add(shed)
	}
}
