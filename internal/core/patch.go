package core

import (
	"sync"

	"fastcppr/internal/sta"
	"fastcppr/model"
)

// This file holds the retained-propagation machinery behind the warm
// single-corner path and the speculative what-if engine: instead of
// re-running a dirtied candidate-generation job from scratch, the cache
// keeps the job's full propagation state and patches only the edited
// arcs' dirty cone (sta.PatchSparse), then replays the collect phase.
// On designs where an edit's cone is a sliver of the graph this turns a
// near-cold recompute into work proportional to the edit's real reach.

// RetainMaxBytes bounds the propagation state one JobCache retains for
// patching, across all jobs: each retained job costs NumPins slot-sized
// (64 B) entries. Beyond the budget, stores skip retention — the job
// cache still works, dirtied jobs just fall back to full re-runs. A
// variable so tests can exercise the refusal path.
var RetainMaxBytes = int64(256 << 20)

// retainedProp is one job's retained propagation: the completed sparse
// state, and the journal position it reflects. The mutex serializes the
// whole patch + collect critical section — patching mutates prop in
// place, so a second reader must wait (and will then find the journal
// already advanced, or borrow with an undo log).
//
// Ownership: the cache that created the entry (owner) patches in place
// and advances journal/seq; forked caches share the pointer but must
// restore the state via the undo log, so a child's speculative edits
// never leak into the parent's retained state.
type retainedProp struct {
	mu      sync.Mutex
	prop    *sta.Prop
	journal *model.EditJournal
	seq     uint64
	owner   *JobCache
	undo    sta.PropUndo
}

// retained returns the retained propagation for key, if any.
func (c *JobCache) retained(key jobKey) *retainedProp {
	m := c.ret.Load()
	if m == nil {
		return nil
	}
	return (*m)[key]
}

// setRetained publishes rp for key copy-on-write, charging pinCount
// 64-byte slots against the retention budget for new keys (replacements
// are pre-paid). Existing entries are replaced only when the newcomer's
// journal position is at least as new — replacement is pure policy (any
// retained state is sound, it carries its own journal), but moving
// backward would thrash the common newest-snapshot readers.
func (c *JobCache) setRetained(key jobKey, rp *retainedProp, pinCount int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur map[jobKey]*retainedProp
	if m := c.ret.Load(); m != nil {
		cur = *m
	}
	if old, ok := cur[key]; ok {
		old.mu.Lock()
		stale := old.seq > rp.seq
		old.mu.Unlock()
		if stale {
			return
		}
	} else {
		cost := int64(pinCount) * 64
		if c.retBytes.Load()+cost > RetainMaxBytes {
			return
		}
		c.retBytes.Add(cost)
	}
	next := make(map[jobKey]*retainedProp, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = rp
	c.ret.Store(&next)
}

// retainProp clones the scratch's just-completed propagation into the
// cache's retained store, positioned at mc's journal head, so the next
// edit that dirties this job can be served by patching.
func (e *Engine) retainProp(s *scratch, cache *JobCache, key jobKey, mc *MemoCtx) {
	clone := s.prop.CloneSparse()
	if clone == nil {
		return
	}
	cache.setRetained(key, &retainedProp{
		prop:    clone,
		journal: mc.Journal,
		seq:     mc.Journal.Seq(),
		owner:   cache,
	}, e.d.NumPins())
}

// Fork returns an isolated copy of the cache for a snapshot forked at
// journal sequence atSeq: the entries fork under the JournalCache rule,
// and retained propagations are shared by pointer, the owner marker
// making child patches borrow-and-restore instead of mutate-in-place.
// The retention charge carries over with them, so a fork cannot retain
// past the budget its parent already spent. Counters remain shared, so
// a timer's Stats aggregate across its forks.
func (c *JobCache) Fork(atSeq uint64) *JobCache {
	nc := &JobCache{jobs: c.jobs.Fork(atSeq), ctr: c.ctr}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rm := c.ret.Load(); rm != nil {
		nrm := make(map[jobKey]*retainedProp, len(*rm))
		for k, v := range *rm {
			nrm[k] = v
		}
		nc.ret.Store(&nrm)
	}
	nc.retBytes.Store(c.retBytes.Load())
	return nc
}

// MemoCtx carries the snapshot-chain context TopPathsMemo validates and
// patches against: the per-corner cache, the snapshot's journal head,
// and the corner the engine computes at.
type MemoCtx struct {
	Cache   *JobCache
	Journal *model.EditJournal
	Corner  model.Corner
}

// jobSeedFn returns the per-pin view of seedJob: the tuple spec would
// offer at pin v before propagation, if any. sta.PatchSparse uses it to
// replay a dirty pin's canonical offer order. It shares ffSeed and
// piSeed with seedJob, and stays valid across journaled edits because
// those never move clock arrivals, CK->Q windows, or constraints (such
// changes rebuild the snapshot).
func (e *Engine) jobSeedFn(spec jobSpec, opts Options) func(model.PinID) (sta.Tuple, bool) {
	lt, _ := e.jobTables(spec, opts)
	var piIndex map[model.PinID]int // lazily built; PI seeds are rarely in a dirty cone
	return func(v model.PinID) (sta.Tuple, bool) {
		switch e.d.Pins[v].Kind {
		case model.FFOutput:
			return e.ffSeed(spec, lt, int(e.d.Pins[v].FF), &opts)
		case model.PI:
			if piIndex == nil {
				piIndex = make(map[model.PinID]int, len(e.d.PIs))
				for i, pi := range e.d.PIs {
					piIndex[pi] = i
				}
			}
			if i, ok := piIndex[v]; ok {
				return e.piSeed(spec, i, &opts)
			}
		}
		return sta.Tuple{}, false
	}
}

// runJobOn replays spec's collect phase against prop, which must hold a
// completed (or patched) propagation of the job on e's design. The
// scratch's own propagation is untouched.
func (e *Engine) runJobOn(s *scratch, prop *sta.Prop, spec jobSpec, j, k int, opts Options, gb *globalBound) ([]*jobOut, int) {
	saved := s.prop
	s.prop = prop
	defer func() { s.prop = saved }()
	return e.collectJob(s, spec, j, k, opts, gb)
}

// servePatched tries to serve a dirtied job by patching its retained
// propagation instead of re-running it: it proves the snapshot's journal
// is the retained state plus a suffix of same-corner data-arc edits,
// patches the edits' dirty cone in place (canonical-order replay, so the
// result is byte-identical to a fresh run), and replays the collect
// phase. Returns ok=false when no patch applies — no retained state,
// divergent journal chains, a clock-adjacent edit, or a vanished arc —
// and the caller falls back to a full run.
//
// When cache owns the retained state the patch is kept and the journal
// position advanced; a forked cache borrows the state under the entry
// mutex and restores it from the undo log, so speculative edits never
// contaminate the parent's retained propagation.
func (e *Engine) servePatched(s *scratch, cache *JobCache, key jobKey, spec jobSpec, j, k int, opts Options, mc *MemoCtx) (jobResult, bool) {
	rp := cache.retained(key)
	if rp == nil {
		return jobResult{}, false
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	edits, ok := mc.Journal.SuffixEdits(rp.journal, mc.Corner, nil)
	if !ok {
		return jobResult{}, false
	}
	// Resolve edits to arc indices. Duplicates (an arc edited twice in
	// the suffix) are harmless: the design holds the final delay and the
	// patch worklist enqueues each dirty sink once.
	arcs := make([]int32, 0, len(edits))
	for _, ed := range edits {
		if e.d.IsClockPin(ed.Src) || e.d.IsClockPin(ed.Dst) {
			// Clock-adjacent edits can move seed values; the patch
			// replay assumes they cannot. (Such edits normally rebuild
			// the snapshot and never reach the journal — this guard
			// keeps the invariant local.)
			return jobResult{}, false
		}
		ai := e.d.ArcBetween(ed.Src, ed.Dst)
		if ai < 0 {
			return jobResult{}, false
		}
		arcs = append(arcs, ai)
	}
	owner := rp.owner == cache
	var undo *sta.PropUndo
	if !owner {
		undo = &rp.undo
		undo.Reset()
	}
	if len(arcs) > 0 {
		rp.prop.PatchSparse(e.d, opts.Mode == model.Setup, arcs, e.jobSeedFn(spec, opts), undo)
	}
	if owner {
		// The patch itself is not cancellable and is now complete: the
		// retained state reflects the snapshot's journal even if the
		// collect below is cut short.
		rp.journal, rp.seq = mc.Journal, mc.Journal.Seq()
	} else {
		defer rp.prop.Unpatch(undo)
	}
	outs, produced := e.runJobOn(s, rp.prop, spec, j, k, opts, &globalBound{})
	if s.canceled() {
		return jobResult{}, false
	}
	return jobResult{produced: produced, outs: e.materialiseOuts(rp.prop, outs)}, true
}
