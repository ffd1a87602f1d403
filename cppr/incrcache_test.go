package cppr

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
	"fastcppr/sdc"
)

// reportBytes canonicalises a report for byte-identity comparison:
// Elapsed is the only field allowed to differ between a cached and an
// uncached run, so it is zeroed before marshalling.
func reportBytes(t *testing.T, d *model.Design, rep Report, mode model.Mode, k int) []byte {
	t.Helper()
	rep.Elapsed = 0
	b, err := json.Marshal(rep.JSON(d, mode, k))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustRun(t *testing.T, timer *Timer, q Query) Report {
	t.Helper()
	rep, err := timer.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// pickDataArc returns the index of a data arc (FF output source) chosen
// by rng — an edit the journal records, as opposed to a clock-tree edit
// that rebuilds the snapshot.
func pickDataArc(t *testing.T, d *model.Design, rng *rand.Rand) int {
	t.Helper()
	for tries := 0; tries < 10*d.NumArcs(); tries++ {
		ai := rng.Intn(d.NumArcs())
		if d.Pins[d.Arcs[ai].From].Kind == model.FFOutput {
			return ai
		}
	}
	t.Fatal("no data arc found")
	return -1
}

// TestWarmRequeryByteIdentical is the end-to-end soundness contract of
// the incremental caches: after each edit, a warm requery (journal
// revalidation + surviving job-cache entries) must be byte-identical to
// both a NoCache run on the same timer and a fresh timer built over the
// edited design.
func TestWarmRequeryByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		d := gen.MustGenerate(gen.Medium(300 + seed))
		timer := NewTimer(d)
		rng := rand.New(rand.NewSource(seed))
		// Prime the caches before the first edit so the warm runs below
		// genuinely exercise revalidation, not just cold fills.
		for _, mode := range model.Modes {
			mustRun(t, timer, Query{K: 40, Mode: mode})
		}
		for step := 0; step < 5; step++ {
			ai := pickDataArc(t, timer.Design(), rng)
			arc := timer.Design().Arcs[ai]
			nw := model.Window{
				Early: arc.Delay.Early + model.Time(rng.Intn(30)),
				Late:  arc.Delay.Late + model.Time(rng.Intn(60)+30),
			}
			if err := timer.SetArcDelay(arc.From, arc.To, nw); err != nil {
				t.Fatal(err)
			}
			nd := timer.Design()
			fresh := NewTimer(nd)
			for _, mode := range model.Modes {
				for _, k := range []int{1, 40} {
					q := Query{K: k, Mode: mode}
					warm := reportBytes(t, nd, mustRun(t, timer, q), mode, k)
					qc := q
					qc.NoCache = true
					cold := reportBytes(t, nd, mustRun(t, timer, qc), mode, k)
					ref := reportBytes(t, nd, mustRun(t, fresh, q), mode, k)
					if !bytes.Equal(warm, cold) {
						t.Fatalf("seed %d step %d %v k=%d: warm differs from NoCache:\n%s\nvs\n%s",
							seed, step, mode, k, warm, cold)
					}
					if !bytes.Equal(warm, ref) {
						t.Fatalf("seed %d step %d %v k=%d: warm differs from fresh timer:\n%s\nvs\n%s",
							seed, step, mode, k, warm, ref)
					}
				}
			}
		}
	}
}

// TestApplySDCDropsAllMemos: a topology-changing edit cannot be
// journalled, so it must reset the snapshot chain — sequence number
// back to zero, every job-cache entry and query-memo entry gone.
func TestApplySDCDropsAllMemos(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(11))
	timer := NewTimer(d)
	q := Query{K: 25, Mode: model.Setup}

	mustRun(t, timer, q)
	mustRun(t, timer, q)
	st := timer.Stats()
	if st.QueryMemoHits == 0 {
		t.Fatalf("repeat query on unedited snapshot missed the query memo: %+v", st)
	}
	if st.JobCacheMisses == 0 {
		t.Fatalf("first run populated no job-cache entries: %+v", st)
	}

	c := sdc.New()
	c.FalseFrom[d.FFs[0].Name] = true
	nd, err := timer.ApplySDC(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := timer.Stats().EditSeq; got != 0 {
		t.Fatalf("EditSeq after ApplySDC = %d, want 0 (fresh chain)", got)
	}

	// ApplySDC installs a false-path filter, which makes queries
	// ineligible for the job cache — but the query memo still works, and
	// both must start cold.
	before := timer.Stats()
	warm := mustRun(t, timer, q)
	mid := timer.Stats()
	if mid.QueryMemoMisses == before.QueryMemoMisses {
		t.Fatal("first query after ApplySDC served from a stale query memo")
	}
	mustRun(t, timer, q)
	after := timer.Stats()
	if after.QueryMemoHits == mid.QueryMemoHits {
		t.Fatal("repeat query after ApplySDC did not re-populate the query memo")
	}
	// And the post-SDC answer matches a fresh timer over the rebuilt
	// design with the same constraints applied.
	ref := NewTimer(nd)
	if _, err := ref.ApplySDC(c); err != nil {
		t.Fatal(err)
	}
	got := reportBytes(t, ref.Design(), warm, q.Mode, q.K)
	want := reportBytes(t, ref.Design(), mustRun(t, ref, q), q.Mode, q.K)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-SDC report differs from fresh timer:\n%s\nvs\n%s", got, want)
	}
}

// TestCornerScopedEditInvalidation: an edit to one corner's delays must
// not invalidate another corner's job cache, in either direction —
// extra-corner edits leave the base cache intact, and base-corner edits
// leave extra-corner caches intact.
func TestCornerScopedEditInvalidation(t *testing.T) {
	d0 := gen.MustGenerate(gen.Medium(21))
	d, slow, err := d0.WithDerivedCorner("slow", func(_ int, w model.Window) model.Window {
		return model.Window{Early: w.Early + w.Early/10, Late: w.Late + w.Late/5}
	})
	if err != nil {
		t.Fatal(err)
	}
	timer := NewTimer(d)
	qBase := Query{K: 30, Mode: model.Setup}
	qSlow := Query{K: 30, Mode: model.Setup, Corners: CornerBit(slow)}

	// Populate both corners' job caches.
	mustRun(t, timer, qBase)
	mustRun(t, timer, qSlow)
	primed := timer.Stats()

	// Edit the extra corner: its cache slot is rebuilt fresh, the base
	// corner's survives untouched.
	var arc model.Arc
	for _, a := range timer.Design().Arcs {
		if timer.Design().Pins[a.From].Kind == model.FFOutput {
			arc = a
			break
		}
	}
	w := timer.Design().ArcDelay(slow, timer.Design().ArcBetween(arc.From, arc.To))
	if err := timer.SetArcDelayAt(slow, arc.From, arc.To,
		model.Window{Early: w.Early, Late: w.Late + 100}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, timer, qBase)
	st := timer.Stats()
	if st.JobCacheMisses != primed.JobCacheMisses {
		t.Fatalf("base-corner requery after slow-corner edit re-ran jobs: misses %d -> %d",
			primed.JobCacheMisses, st.JobCacheMisses)
	}
	// The requery must be served from cache — either job-by-job or, now
	// that the query memo is carried across corner-disjoint edits, as one
	// whole-report cone skip.
	if st.JobCacheHits == primed.JobCacheHits && st.QueryMemoHits == primed.QueryMemoHits {
		t.Fatal("base-corner requery after slow-corner edit hit neither cache")
	}
	if st.ConeSkips == primed.ConeSkips {
		t.Fatal("corner-disjoint edit crossing did not count a cone skip")
	}
	mustRun(t, timer, qSlow)
	st2 := timer.Stats()
	if st2.JobCacheMisses == st.JobCacheMisses {
		t.Fatal("slow-corner requery after its own edit served stale entries")
	}

	// Edit the base corner on a data arc: the slow corner's rebuilt
	// cache survives, while base entries whose cone contains the edited
	// arc's source are invalidated (the self-loop/cross jobs always
	// qualify — their cone is every FF output's forward cone).
	if err := timer.SetArcDelay(arc.From, arc.To,
		model.Window{Early: arc.Delay.Early, Late: arc.Delay.Late + 100}); err != nil {
		t.Fatal(err)
	}
	pre := timer.Stats()
	mustRun(t, timer, qSlow)
	st3 := timer.Stats()
	if st3.JobCacheMisses != pre.JobCacheMisses {
		t.Fatalf("slow-corner requery after base edit re-ran jobs: misses %d -> %d",
			pre.JobCacheMisses, st3.JobCacheMisses)
	}
	mustRun(t, timer, qBase)
	st4 := timer.Stats()
	if st4.JobCacheInvalidated == st3.JobCacheInvalidated {
		t.Fatal("base edit inside cached cones invalidated no entries")
	}

	// Both corners must still answer exactly: compare against a fresh
	// timer over the twice-edited design.
	fresh := NewTimer(timer.Design())
	for _, q := range []Query{qBase, qSlow} {
		got := reportBytes(t, timer.Design(), mustRun(t, timer, q), q.Mode, q.K)
		want := reportBytes(t, timer.Design(), mustRun(t, fresh, q), q.Mode, q.K)
		if !bytes.Equal(got, want) {
			t.Fatalf("corners %v: edited timer differs from fresh:\n%s\nvs\n%s", q.Corners, got, want)
		}
	}
}

// TestStatsJSONRoundTrip: TimerStats is part of the JSON surface
// (cpprserve's /stats emits it per design); every field must survive a
// marshal/unmarshal round trip.
func TestStatsJSONRoundTrip(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(31))
	timer := NewTimer(d)
	q := Query{K: 20, Mode: model.Setup}
	mustRun(t, timer, q)
	mustRun(t, timer, q) // query-memo hit
	arc := d.Arcs[pickDataArc(t, d, rand.New(rand.NewSource(1)))]
	if err := timer.SetArcDelay(arc.From, arc.To,
		model.Window{Early: arc.Delay.Early, Late: arc.Delay.Late + 50}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, timer, q) // journal revalidation: hits, misses or invalidations
	timer.NoteServed(3, 1)
	// Two identical batch queries share one execution unit, so both
	// count as coalesced.
	if _, err := timer.ReportBatch(context.Background(), []Query{q, q}); err != nil {
		t.Fatal(err)
	}

	st := timer.Stats()
	if st.EditSeq != 1 {
		t.Fatalf("EditSeq = %d, want 1 after one journalled edit", st.EditSeq)
	}
	if st.QueryMemoHits == 0 || st.QueryMemoMisses == 0 || st.JobCacheMisses == 0 {
		t.Fatalf("counters not exercised: %+v", st)
	}
	if st.ServedAdmitted != 3 || st.ServedShed != 1 || st.ServedCoalesced != 2 {
		t.Fatalf("served counters not exercised: %+v", st)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back TimerStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip changed stats:\n%+v\nvs\n%+v", back, st)
	}

	// The macromodel counters ride the same schema; a hierarchical
	// timer must round-trip them non-zero.
	hd := gen.MustGenerateBlocked(gen.BlockedArray(9))
	ht, err := NewHierTimer(hd, HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	internal, _ := hierArcSamples(t, ht)
	ha := hd.Arcs[internal]
	if err := ht.SetArcDelayAt(model.BaseCorner, ha.From, ha.To,
		model.Window{Early: 1, Late: 300}); err != nil {
		t.Fatal(err)
	}
	hst := ht.Stats()
	if hst.MacroExtracted == 0 || hst.MacroReused == 0 || hst.MacroReextracted != 1 {
		t.Fatalf("macromodel counters not exercised: %+v", hst)
	}
	hb, err := json.Marshal(hst)
	if err != nil {
		t.Fatal(err)
	}
	var hback TimerStats
	if err := json.Unmarshal(hb, &hback); err != nil {
		t.Fatal(err)
	}
	if hback != hst {
		t.Fatalf("hier round trip changed stats:\n%+v\nvs\n%+v", hback, hst)
	}
}

// TestNoCacheBypass: NoCache queries must not read or populate either
// cache layer, and must still produce the exact answer.
func TestNoCacheBypass(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(41))
	timer := NewTimer(d)
	q := Query{K: 15, Mode: model.Hold, NoCache: true}
	first := mustRun(t, timer, q)
	second := mustRun(t, timer, q)
	st := timer.Stats()
	if st.JobCacheHits != 0 || st.JobCacheMisses != 0 ||
		st.QueryMemoHits != 0 || st.QueryMemoMisses != 0 {
		t.Fatalf("NoCache queries touched cache counters: %+v", st)
	}
	a := reportBytes(t, d, first, q.Mode, q.K)
	b := reportBytes(t, d, second, q.Mode, q.K)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated NoCache runs differ:\n%s\nvs\n%s", a, b)
	}
	// And a cached run answers identically.
	qc := q
	qc.NoCache = false
	c := reportBytes(t, d, mustRun(t, timer, qc), q.Mode, q.K)
	if !bytes.Equal(a, c) {
		t.Fatalf("cached run differs from NoCache run:\n%s\nvs\n%s", a, c)
	}
}

// TestKPrefixAcrossBudgets: one max-K execution serves every smaller K
// through the query memo, and a larger K re-runs only what it must —
// with answers byte-identical to fresh runs throughout.
func TestKPrefixAcrossBudgets(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(51))
	timer := NewTimer(d)
	mustRun(t, timer, Query{K: 60, Mode: model.Setup})
	st := timer.Stats()

	for _, k := range []int{1, 12, 60} {
		q := Query{K: k, Mode: model.Setup}
		got := reportBytes(t, d, mustRun(t, timer, q), q.Mode, k)
		want := reportBytes(t, d, mustRun(t, NewTimer(d), q), q.Mode, k)
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d: memo-served prefix differs from fresh run:\n%s\nvs\n%s", k, got, want)
		}
	}
	st2 := timer.Stats()
	if st2.QueryMemoHits-st.QueryMemoHits != 3 {
		t.Fatalf("smaller-K queries were not all memo hits: %+v -> %+v", st, st2)
	}
	if st2.JobCacheMisses != st.JobCacheMisses {
		t.Fatalf("smaller-K queries re-ran jobs: misses %d -> %d", st.JobCacheMisses, st2.JobCacheMisses)
	}

	// K beyond the primed budget: the query memo cannot serve it (its
	// entry is not exhausted on a design this size), so jobs re-run at
	// the larger budget — and the answer is still exact.
	q := Query{K: 90, Mode: model.Setup}
	got := reportBytes(t, d, mustRun(t, timer, q), q.Mode, q.K)
	want := reportBytes(t, d, mustRun(t, NewTimer(d), q), q.Mode, q.K)
	if !bytes.Equal(got, want) {
		t.Fatalf("k=90 upscale differs from fresh run:\n%s\nvs\n%s", got, want)
	}
	st3 := timer.Stats()
	if st3.QueryMemoMisses == st2.QueryMemoMisses {
		t.Fatal("K=90 after K=60 should have missed the query memo")
	}
}

// TestWarmTruncationMatchesColdTies: a report served by truncating a
// larger cached run equals a fresh NoCache run byte for byte, down to
// which of two equal-slack paths takes a rank. On these designs the
// k-th and (k+1)-th slacks tie; the candidate heaps' (slack, tie key)
// total order is what makes the pops under a smaller budget a prefix
// of the pops under a larger one.
func TestWarmTruncationMatchesColdTies(t *testing.T) {
	for seed := int64(300); seed <= 305; seed++ {
		d := gen.MustGenerate(gen.Medium(seed))
		for _, mode := range model.Modes {
			for _, k := range []int{7, 25, 60} {
				timer := NewTimer(d)
				mustRun(t, timer, Query{K: 200, Mode: mode})
				q := Query{K: k, Mode: mode}
				got := reportBytes(t, d, mustRun(t, timer, q), mode, k)
				q.NoCache = true
				want := reportBytes(t, d, mustRun(t, NewTimer(d), q), mode, k)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d %v k=%d: warm report differs from cold:\n%s\nvs\n%s", seed, mode, k, got, want)
				}
			}
		}
	}
}
