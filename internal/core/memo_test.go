package core

import (
	"context"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

// mustMemo runs a memoized base-corner query on the snapshot whose
// journal head is j (nil: no edits yet).
func mustMemo(tb testing.TB, e *Engine, opts Options, c *JobCache, j *model.EditJournal) Result {
	tb.Helper()
	res, err := e.TopPathsMemo(context.Background(), opts, MemoCtx{Cache: c, Journal: j, Corner: model.BaseCorner})
	if err != nil {
		tb.Fatalf("TopPathsMemo: %v", err)
	}
	return res
}

// equalPaths compares reports field-by-field, pins included — the
// byte-identity contract of the memoized path.
func equalPaths(tb testing.TB, what string, got, want []model.Path) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Slack != w.Slack || g.PreSlack != w.PreSlack || g.Credit != w.Credit ||
			g.LCADepth != w.LCADepth || g.LaunchFF != w.LaunchFF || g.CaptureFF != w.CaptureFF ||
			g.Mode != w.Mode {
			tb.Fatalf("%s: path %d differs: %+v vs %+v", what, i, g, w)
		}
		if len(g.Pins) != len(w.Pins) {
			tb.Fatalf("%s: path %d pin count %d vs %d", what, i, len(g.Pins), len(w.Pins))
		}
		for j := range g.Pins {
			if g.Pins[j] != w.Pins[j] {
				tb.Fatalf("%s: path %d pin %d: %d vs %d", what, i, j, g.Pins[j], w.Pins[j])
			}
		}
	}
}

func TestTopPathsMemoMatchesTopPaths(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		d := gen.MustGenerate(gen.Medium(seed))
		e := NewEngine(d)
		for _, mode := range []model.Mode{model.Setup, model.Hold} {
			for _, k := range []int{1, 7, 50} {
				opts := Options{K: k, Mode: mode}
				want := mustTopPaths(t, e, opts)
				cache := NewJobCache(nil)
				cold := mustMemo(t, e, opts, cache, nil)
				warm := mustMemo(t, e, opts, cache, nil)
				equalPaths(t, "cold memo", cold.Paths, want.Paths)
				equalPaths(t, "warm memo", warm.Paths, want.Paths)
				if cold.Stats.Jobs != want.Stats.Jobs || warm.Stats.Jobs != want.Stats.Jobs {
					t.Fatalf("Jobs: memo %d/%d, TopPaths %d",
						cold.Stats.Jobs, warm.Stats.Jobs, want.Stats.Jobs)
				}
				if cold.Stats.Candidates < cold.Stats.Kept {
					t.Fatalf("cold Candidates %d < Kept %d", cold.Stats.Candidates, cold.Stats.Kept)
				}
				if warm.Stats.Reconstructed != 0 {
					t.Fatalf("warm run reconstructed %d paths, want 0 (all jobs cached)",
						warm.Stats.Reconstructed)
				}
			}
		}
	}
}

func TestTopPathsMemoKPrefixServing(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(1))
	e := NewEngine(d)
	var ctr CacheCounters
	cache := NewJobCache(&ctr)

	// Prime at a large budget, then serve strictly smaller budgets from
	// the same entries: the pop stream's prefix property makes the
	// truncated answers exact.
	big := Options{K: 64, Mode: model.Setup}
	mustMemo(t, e, big, cache, nil)
	misses := ctr.Misses.Load()
	for _, k := range []int{1, 3, 17, 64} {
		opts := Options{K: k, Mode: model.Setup}
		got := mustMemo(t, e, opts, cache, nil)
		want := mustTopPaths(t, e, opts)
		equalPaths(t, "k-prefix", got.Paths, want.Paths)
	}
	if ctr.Misses.Load() != misses {
		t.Fatalf("smaller-k queries re-ran jobs: misses %d -> %d", misses, ctr.Misses.Load())
	}

	// A larger budget than any entry forces re-runs — except for jobs
	// whose stream already ran dry (exhausted entries serve any K).
	mustMemo(t, e, Options{K: 128, Mode: model.Setup}, cache, nil)
	if ctr.Misses.Load() == misses {
		t.Fatal("K=128 after K=64 should have re-run at least one non-exhausted job")
	}

	// A tiny design where K exceeds every job's candidate stream: once
	// exhausted entries exist, any larger K is a full hit.
	d2 := gen.MustGenerate(gen.SmallOracle(2))
	e2 := NewEngine(d2)
	var ctr2 CacheCounters
	cache2 := NewJobCache(&ctr2)
	mustMemo(t, e2, Options{K: 512, Mode: model.Hold}, cache2, nil)
	m := ctr2.Misses.Load()
	got := mustMemo(t, e2, Options{K: 1024, Mode: model.Hold}, cache2, nil)
	want := mustTopPaths(t, e2, Options{K: 1024, Mode: model.Hold})
	equalPaths(t, "exhausted upscale", got.Paths, want.Paths)
	if ctr2.Misses.Load() != m {
		t.Fatalf("exhausted entries re-ran on larger K: misses %d -> %d", m, ctr2.Misses.Load())
	}
}

// dirtyEveryJob appends to j, for every job of opts' plan, one
// base-corner edit of a data arc whose source lies in the job's cone.
// The design's delays are left as they are, so reports stay unchanged.
func dirtyEveryJob(tb testing.TB, e *Engine, opts Options, j *model.EditJournal) *model.EditJournal {
	tb.Helper()
	for _, spec := range e.jobPlan(opts) {
		cone := e.jobCone(spec)
		found := false
		for _, a := range e.d.Arcs {
			if !e.d.IsClockPin(a.From) && cone.Contains(a.From) {
				j = j.Append(model.BaseCorner, a.From, a.To)
				found = true
				break
			}
		}
		if !found {
			tb.Fatalf("job %+v: no data arc leaves its cone", spec)
		}
	}
	return j
}

func TestTopPathsMemoInvalidation(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(2))
	e := NewEngine(d)
	var ctr CacheCounters
	cache := NewJobCache(&ctr)
	opts := Options{K: 20, Mode: model.Setup}
	want := mustTopPaths(t, e, opts)

	mustMemo(t, e, opts, cache, nil)
	entries := cache.Len()
	if entries == 0 {
		t.Fatal("no entries cached")
	}

	// An edit inside every job's cone: all entries must be refused and
	// recomputed, and the rebuilt answer must still be exact.
	j := dirtyEveryJob(t, e, opts, nil)
	got := mustMemo(t, e, opts, cache, j)
	equalPaths(t, "after invalidation", got.Paths, want.Paths)
	if inv := ctr.Invalidated.Load(); inv != int64(entries) {
		t.Fatalf("Invalidated = %d, want %d (every entry)", inv, entries)
	}

	// Entries were re-stored at j's head: a query there serves the
	// whole report from cache.
	if rec := mustMemo(t, e, opts, cache, j).Stats.Reconstructed; rec != 0 {
		t.Fatalf("revalidated query reconstructed %d, want 0", rec)
	}
}

// TestTopPathsMemoSeqBump checks the walk-shortening contract: a reuse
// across an edit outside every cone is a cone skip and advances the
// entry's watermark, so the next reuse at the same head is a plain hit.
func TestTopPathsMemoSeqBump(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(0))
	e := NewEngine(d)
	var ctr CacheCounters
	cache := NewJobCache(&ctr)
	opts := Options{K: 8, Mode: model.Setup}
	mustMemo(t, e, opts, cache, nil)
	entries := int64(cache.Len())
	// Other-corner edits never dirty a base-corner entry.
	a := d.Arcs[0]
	j := (*model.EditJournal)(nil).Append(1, a.From, a.To).Append(1, a.From, a.To)
	hits := ctr.Hits.Load()
	mustMemo(t, e, opts, cache, j)
	if got := ctr.ConeSkips(); got != entries {
		t.Fatalf("first reuse across the edits: %d cone skips, want %d (every entry)", got, entries)
	}
	mustMemo(t, e, opts, cache, j)
	if got := ctr.ConeSkips(); got != entries {
		t.Fatalf("watermarks not advanced on reuse: cone skips %d -> %d", entries, got)
	}
	if got := ctr.Hits.Load() - hits; got != 2*entries {
		t.Fatalf("hits = %d, want %d", got, 2*entries)
	}
}
