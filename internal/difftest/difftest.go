// Package difftest is the reusable differential-testing harness for the
// CPPR query path: it cross-checks the paper's AlgoLCA implementation
// against the independently implemented baselines at the public cppr
// API level, on seeded random designs, per delay corner. The package
// promotes the comparison patterns of internal/core's crosscheck tests
// into helpers that test batteries across the repo (cppr, netlist,
// experiments) can share.
package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"fastcppr/cppr"
	"fastcppr/model"
)

// Slacks projects reported paths onto their post-CPPR slack spectrum —
// the canonical comparison key: two exact implementations must agree on
// the multiset of top-k slacks even when they break slack ties by
// different (equally critical) paths.
func Slacks(paths []model.Path) []model.Time {
	out := make([]model.Time, len(paths))
	for i, p := range paths {
		out[i] = p.Slack
	}
	return out
}

// Equal reports whether two slack spectra match exactly. Slacks are
// fixed-point picoseconds, so equality is exact — no tolerance.
func Equal(a, b []model.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Ascending reports whether the spectrum is sorted most-critical-first
// (ascending slack), the order every exact algorithm must emit.
func Ascending(s []model.Time) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// JitteredCorner appends a delay corner whose every arc delay is the
// base corner's scaled by an independent, seeded random factor in
// [1-spread, 1+spread] — per-arc variation rather than a global derate,
// so corner-specific critical paths genuinely differ from the base
// corner's. Scaling both bounds by one factor keeps windows valid.
func JitteredCorner(d *model.Design, name string, seed int64, spread float64) (*model.Design, model.Corner, error) {
	rng := rand.New(rand.NewSource(seed))
	return d.WithDerivedCorner(name, func(_ int, w model.Window) model.Window {
		f := 1 + spread*(2*rng.Float64()-1)
		return model.Window{
			Early: model.Time(math.Round(float64(w.Early) * f)),
			Late:  model.Time(math.Round(float64(w.Late) * f)),
		}
	})
}

// WithJitteredCorners returns d extended to n corners via JitteredCorner,
// deriving per-corner seeds from seed.
func WithJitteredCorners(tb testing.TB, d *model.Design, n int, seed int64) *model.Design {
	tb.Helper()
	names := []string{"fast", "slow", "hot", "cold", "lowv", "highv", "wc", "bc"}
	for i := 0; i < n-1; i++ {
		name := names[i%len(names)]
		if i >= len(names) {
			name = name + string(rune('0'+i/len(names)))
		}
		var err error
		d, _, err = JitteredCorner(d, name, seed*1000+int64(i)+1, 0.25)
		if err != nil {
			tb.Fatalf("difftest: corner %q: %v", name, err)
		}
	}
	return d
}

// CrossCheck runs q under every algorithm in algos against timer and
// fails tb unless all post-CPPR slack spectra match the first
// algorithm's exactly. It also enforces the structural contract every
// exact report honours: ascending slack order, at most K paths, no
// degradation (a degraded baseline proves nothing — raise its budget
// instead of comparing against it).
func CrossCheck(tb testing.TB, timer *cppr.Timer, q cppr.Query, algos ...cppr.Algorithm) {
	tb.Helper()
	var ref []model.Time
	var refAlgo cppr.Algorithm
	for i, a := range algos {
		qa := q
		qa.Algorithm = a
		rep, err := timer.Run(context.Background(), qa)
		if err != nil {
			tb.Fatalf("difftest: %v: %v", a, err)
		}
		if rep.Degraded {
			tb.Fatalf("difftest: %v degraded under k=%d; raise its budget for differential runs", a, q.K)
		}
		if len(rep.Paths) > q.K {
			tb.Fatalf("difftest: %v returned %d paths for k=%d", a, len(rep.Paths), q.K)
		}
		s := Slacks(rep.Paths)
		if !Ascending(s) {
			tb.Fatalf("difftest: %v slacks not ascending: %v", a, s)
		}
		if i == 0 {
			ref, refAlgo = s, a
			continue
		}
		if !Equal(ref, s) {
			tb.Fatalf("difftest: %v and %v disagree (corners %#x, mode %v, k=%d)\n%v: %v\n%v: %v",
				refAlgo, a, uint64(q.Corners), q.Mode, q.K, refAlgo, ref, a, s)
		}
	}
}

// CheckWarmColdByteIdentical runs q under AlgoLCA twice against the
// same timer — once through the incremental caches (warm: journal
// revalidation plus whatever job-cache and query-memo entries the
// timer has accumulated) and once with Query.NoCache forcing a cold
// uncached run — and fails tb unless the two marshalled JSON reports
// are byte-for-byte identical. This is stronger than slack equality:
// pins, credits, endpoint names and stats must all match, which holds
// only if cache revalidation is exact. Wall time is zeroed before marshalling; it is the one field
// allowed to differ.
func CheckWarmColdByteIdentical(tb testing.TB, timer *cppr.Timer, d *model.Design, q cppr.Query) {
	tb.Helper()
	q.Algorithm = cppr.AlgoLCA
	run := func(noCache bool) []byte {
		qq := q
		qq.NoCache = noCache
		rep, err := timer.Run(context.Background(), qq)
		if err != nil {
			tb.Fatalf("difftest: noCache=%v: %v", noCache, err)
		}
		rep.Elapsed = 0
		out, err := json.Marshal(rep.JSON(d, q.Mode, q.K))
		if err != nil {
			tb.Fatalf("difftest: marshal: %v", err)
		}
		return out
	}
	warm := run(false)
	cold := run(true)
	if !bytes.Equal(warm, cold) {
		tb.Fatalf("difftest: warm and cold runs disagree (corners %#x, mode %v, k=%d)\nwarm: %s\ncold: %s",
			uint64(q.Corners), q.Mode, q.K, warm, cold)
	}
}

// CheckHierValueExact builds a flat timer and a hierarchical timer
// (block macromodel extraction, cppr.NewHierTimer) on the same design
// and fails tb unless they agree value-exactly at every top-visible
// endpoint: the per-endpoint post-CPPR slack sweep and the top-1
// reported slack, for every corner (and the merged all-corner
// selection), both modes, and both CRPR credit semantics. force
// extracts even uncompressible blocks, so random presets with wide
// boundaries still exercise the macro path.
func CheckHierValueExact(tb testing.TB, d *model.Design, force bool) {
	tb.Helper()
	ht, err := cppr.NewHierTimer(d, cppr.HierOptions{ForceExtract: force})
	if err != nil {
		tb.Fatalf("difftest: hier elaboration: %v", err)
	}
	CheckHierTimersAgree(tb, cppr.NewTimer(d), ht, d.NumCorners())
}

// CheckHierTimersAgree compares a flat reference timer against a
// hierarchical timer over every corner selection, mode, and CRPR
// setting (see CheckHierValueExact). Split out so edit-path batteries
// can re-check after mutating both sides.
func CheckHierTimersAgree(tb testing.TB, flat, hier *cppr.Timer, numCorners int) {
	tb.Helper()
	ctx := context.Background()
	selections := make([]cppr.CornerMask, 0, numCorners+1)
	for c := 0; c < numCorners; c++ {
		selections = append(selections, cppr.CornerBit(model.Corner(c)))
	}
	if numCorners > 1 {
		selections = append(selections, cppr.CornerAll)
	}
	for _, sel := range selections {
		for _, mode := range model.Modes {
			for _, crpr := range []cppr.CRPRSetting{cppr.CRPRSamePin, cppr.CRPRSameTransition} {
				q := cppr.Query{K: 1, Mode: mode, Corners: sel, CRPR: crpr}
				fs, err := flat.PostCPPRSlacksCtx(ctx, q)
				if err != nil {
					tb.Fatalf("difftest: flat sweep: %v", err)
				}
				hs, err := hier.PostCPPRSlacksCtx(ctx, q)
				if err != nil {
					tb.Fatalf("difftest: hier sweep: %v", err)
				}
				if len(fs) != len(hs) {
					tb.Fatalf("difftest: endpoint counts differ: flat %d, hier %d", len(fs), len(hs))
				}
				for i := range fs {
					if fs[i] != hs[i] {
						tb.Fatalf("difftest: endpoint %d diverges (corners %#x, mode %v, crpr %d)\nflat: %+v\nhier: %+v",
							i, uint64(sel), mode, crpr, fs[i], hs[i])
					}
				}
				fr, err := flat.Run(ctx, q)
				if err != nil {
					tb.Fatalf("difftest: flat top-1: %v", err)
				}
				hr, err := hier.Run(ctx, q)
				if err != nil {
					tb.Fatalf("difftest: hier top-1: %v", err)
				}
				fw, fok := fr.WorstSlack()
				hw, hok := hr.WorstSlack()
				if fok != hok || fw != hw {
					tb.Fatalf("difftest: top-1 diverges (corners %#x, mode %v, crpr %d): flat %v(%v), hier %v(%v)",
						uint64(sel), mode, crpr, fw, fok, hw, hok)
				}
			}
		}
	}
}

// CheckEndpointSweep cross-checks the two independent post-CPPR
// surfaces of the Timer: the worst slack of the endpoint sweep
// (PostCPPRSlacksCtx) must equal the slack of the top reported path
// (Run with K=1), per corner selection.
func CheckEndpointSweep(tb testing.TB, timer *cppr.Timer, q cppr.Query) {
	tb.Helper()
	q.Algorithm = cppr.AlgoLCA
	slacks, err := timer.PostCPPRSlacksCtx(context.Background(), q)
	if err != nil {
		tb.Fatalf("difftest: endpoint sweep: %v", err)
	}
	var worst model.Time
	found := false
	for _, s := range slacks {
		if s.Valid && (!found || s.Slack < worst) {
			worst, found = s.Slack, true
		}
	}
	q.K = 1
	rep, err := timer.Run(context.Background(), q)
	if err != nil {
		tb.Fatalf("difftest: top-1 run: %v", err)
	}
	top, ok := rep.WorstSlack()
	if found != ok {
		tb.Fatalf("difftest: sweep found=%v but top-1 ok=%v", found, ok)
	}
	if found && worst != top {
		tb.Fatalf("difftest: endpoint sweep worst %v != top path slack %v (corners %#x, mode %v)",
			worst, top, uint64(q.Corners), q.Mode)
	}
}
