package cppr

import (
	"context"

	"fastcppr/internal/qerr"
	"fastcppr/internal/sched"
	"fastcppr/model"
)

// This file implements speculative what-if analysis on the snapshot
// chain: Timer.Fork yields an isolated child timer that shares the
// parent's caches copy-on-write, and Timer.WhatIf scores many candidate
// edit sets concurrently without materializing a full timer per
// candidate.

// fork returns an isolated copy of s for a child timer. The heavy
// immutable substrate — design, clock tree, engines, baselines, the
// flushed graph-arrival windows — is shared by pointer; everything an
// edit or a cache store can mutate is forked copy-on-write:
//
//   - each built corner's job cache, via JobCache.Fork (entries and
//     retained propagations shared, watermarks clamped to s.seq);
//   - the whole-report query memo, likewise clamped;
//   - unbuilt lazy-corner slots start unbuilt in the child (each side
//     builds its own, so a child edit never poisons the parent's slot).
//
// Clamping matters because the parent and child journal chains diverge
// at s.seq: a parent-side validation past the fork point proves nothing
// about the child's edits, and vice versa. Counters stay shared — a
// timer's Stats aggregate across its forks.
func (s *snapshot) fork() *snapshot {
	ns := *s
	nb := *s.base
	nb.cache = s.base.cache.Fork(s.seq)
	ns.base = &nb
	ns.extra = make([]*lazyCorner, len(s.extra))
	for i, slot := range s.extra {
		nslot := &lazyCorner{}
		if ce := slot.built(); ce != nil {
			nce := *ce
			nce.cache = ce.cache.Fork(s.seq)
			nslot.ce.Store(&nce)
		}
		ns.extra[i] = nslot
	}
	ns.memo = s.memo.Fork(s.seq)
	return &ns
}

// Fork returns an isolated child timer positioned at the parent's
// current snapshot. The child shares the parent's immutable substrate
// (design, clock tree, engines) and starts with the parent's caches —
// job caches, retained propagations, query memo — forked copy-on-write,
// so its first queries are as warm as the parent's. Isolation is
// two-way: edits on the child are never visible to the parent, and
// parent edits made after the fork are never visible to the child.
// Both timers remain fully usable and safe for concurrent use; Stats
// counters are shared, aggregating across the fork family.
func (t *Timer) Fork() *Timer { return t.forkAt(t.snap.Load()) }

// forkAt returns a child timer forked at s, which must be one of t's
// snapshots, inheriting t's Parallelism.
func (t *Timer) forkAt(s *snapshot) *Timer {
	s.ctr.forks.Add(1)
	nt := &Timer{}
	nt.snap.Store(s.fork())
	if p := t.par.Load(); p != nil {
		nt.par.Store(p)
	}
	return nt
}

// ArcEdit is one speculative arc-delay edit: set the delay window of
// the arc From -> To at Corner.
type ArcEdit struct {
	Corner model.Corner
	From   model.PinID
	To     model.PinID
	Delay  model.Window
}

// EditSet is one what-if candidate: a set of arc edits applied together
// (in order) to a forked timer before scoring.
type EditSet []ArcEdit

// CandidateScore is one candidate's what-if outcome. Reports[i] is the
// candidate's report for queries[i]; Delta[i] is its worst slack minus
// the baseline's (positive = the edit improves the critical path),
// valid only when DeltaValid[i] — both sides reported at least one
// path. A failed candidate (bad edit, cancellation) carries Err and
// nil slices; other candidates are unaffected.
type CandidateScore struct {
	Candidate  int
	Err        error
	Reports    []Report
	Delta      []model.Time
	DeltaValid []bool
}

// WhatIfResult is Timer.WhatIf's outcome: the baseline reports computed
// on the unedited timer, and one score per candidate, index-aligned
// with the candidates argument.
type WhatIfResult struct {
	Baseline   []Report
	Candidates []CandidateScore
}

// WhatIf scores candidate edit sets against the timer's current state:
// for each candidate it forks an isolated child timer, applies the
// candidate's edits, runs the queries, and reports each query's worst
// slack delta against the baseline (the unedited timer's report,
// computed once). Candidates are evaluated concurrently under the
// Timer's Parallelism budget on one shared work-stealing pool — each
// candidate's inner engine jobs spawn as stealable tasks on the same
// pool, so the worker budget is shared across timers, not multiplied.
//
// The speculation is cheap by construction: a child starts with the
// parent's caches forked copy-on-write, so a candidate recomputes only
// the jobs whose cone its own edits dirty — typically by patching the
// job's retained propagation rather than re-running it — while
// everything else serves from the shared warm state. Reports are
// byte-identical to a fresh timer built on the edited design, at any
// worker count. The parent timer is never modified.
//
// A per-candidate failure is recorded in that candidate's Err; the
// call itself errors only on invalid queries, an empty query list, or
// context cancellation.
func (t *Timer) WhatIf(ctx context.Context, candidates []EditSet, queries []Query) (*WhatIfResult, error) {
	if len(queries) == 0 {
		return nil, qerr.Invalid("WhatIf needs at least one query")
	}
	s := t.snap.Load()
	par := t.Parallelism()
	nqs := make([]Query, len(queries))
	for i, q := range queries {
		nq := q
		if err := s.normalize(&nq); err != nil {
			return nil, err
		}
		nq.Threads = par.threadsFor(nq)
		nqs[i] = nq
	}
	s.ctr.whatifCandidates.Add(int64(len(candidates)))
	res := &WhatIfResult{
		Baseline:   make([]Report, len(nqs)),
		Candidates: make([]CandidateScore, len(candidates)),
	}
	// Baseline once, on the frozen snapshot — candidate evaluations
	// compare against it and also inherit the caches it warmed.
	for i, nq := range nqs {
		rep, err := s.run(ctx, nq, 1, nil)
		if err != nil {
			return nil, err
		}
		res.Baseline[i] = rep
	}
	eval := func(ci int, tc *sched.TC) {
		sc := &res.Candidates[ci]
		sc.Candidate = ci
		child := t.forkAt(s)
		for _, ed := range candidates[ci] {
			if err := child.SetArcDelayAt(ed.Corner, ed.From, ed.To, ed.Delay); err != nil {
				sc.Err = err
				return
			}
		}
		cs := child.snap.Load()
		sc.Reports = make([]Report, len(nqs))
		sc.Delta = make([]model.Time, len(nqs))
		sc.DeltaValid = make([]bool, len(nqs))
		for qi, nq := range nqs {
			rep, err := cs.run(ctx, nq, 1, tc)
			if err != nil {
				sc.Err = err
				return
			}
			sc.Reports[qi] = rep
			bw, bok := res.Baseline[qi].WorstSlack()
			cw, cok := rep.WorstSlack()
			if bok && cok {
				sc.Delta[qi] = cw - bw
				sc.DeltaValid[qi] = true
			}
		}
	}
	if w := par.workers(); w > 1 && len(candidates) > 1 {
		pool := sched.New(w)
		pool.ForEach(len(candidates), eval)
		pool.Close()
	} else {
		for i := range candidates {
			eval(i, nil)
		}
	}
	if err := qerr.FromContext(ctx); err != nil {
		return nil, err
	}
	return res, nil
}
