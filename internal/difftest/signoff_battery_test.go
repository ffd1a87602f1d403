package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/internal/baseline"
	"fastcppr/internal/lca"
	"fastcppr/model"
	"fastcppr/sdc"
)

// signoffKnobs enumerates the industrial-semantics knobs as independent
// battery legs: an SDC text switching the knob on (empty = the off
// baseline), plus the CRPR setting of the queries. The same_transition
// knob appears twice — once as an explicit query setting and once
// resolved from the SDC's set_crpr_mode default — because those are two
// different code paths into the same semantics.
var signoffKnobs = []struct {
	name string
	sdc  string
	crpr cppr.CRPRSetting
}{
	{"off", "", cppr.CRPRSamePin},
	{"uncertainty", "set_clock_uncertainty -setup 60ps\nset_clock_uncertainty -hold 25ps\n", cppr.CRPRSamePin},
	{"derate", "set_timing_derate -early 0.94 -late 1.07\n", cppr.CRPRSamePin},
	{"ideal_clock", "set_ideal_clock\n", cppr.CRPRSamePin},
	{"propagated_clock", "set_propagated_clock\n", cppr.CRPRSamePin},
	// Extreme overridden windows so the I/O paths become critical and
	// the knob is exercised on the reported spectrum, not just parsed.
	{"io_delay", "set_input_delay in0 -early 0ps -late 40000ps\nset_output_delay out0 -early 100ps -late 400ps\n", cppr.CRPRSamePin},
	{"same_transition", "", cppr.CRPRSameTransition},
	{"same_transition_sdc", "set_crpr_mode same_transition\n", cppr.CRPRDefault},
}

// signoffTimer builds a jittered-corner timer for the knob on a
// divergent-clock oracle design and returns it with the (possibly
// SDC-transformed) design the reports render against.
func signoffTimer(tb testing.TB, seed int64, sdcText string) (*cppr.Timer, *model.Design) {
	tb.Helper()
	d := gen.MustGenerate(gen.DivergentClock(seed))
	d = WithJitteredCorners(tb, d, 2, seed)
	timer := cppr.NewTimer(d)
	if sdcText != "" {
		c, err := sdc.ParseString(sdcText)
		if err != nil {
			tb.Fatalf("difftest: signoff sdc: %v", err)
		}
		if d, err = timer.ApplySDC(c); err != nil {
			tb.Fatalf("difftest: signoff apply: %v", err)
		}
	}
	return timer, d
}

// TestSignoffKnobsVsBruteForce is the oracle battery for the industrial
// semantics pack: every knob leg (clock uncertainty, global derates,
// ideal vs propagated clocks, I/O delay overrides, same_transition CRPR
// both query- and SDC-selected) is cross-checked — all exact engines
// against exhaustive enumeration — on inverter-mixed oracle designs,
// per jittered corner, per mode, per k. It also requires each knob in
// signoffMovers to move the worst post-CPPR slack against the "off" leg
// in at least one corner and mode: a knob that never changes anything
// would mean its plumbing is disconnected.
func TestSignoffKnobsVsBruteForce(t *testing.T) {
	withBrute := append([]cppr.Algorithm{cppr.AlgoBruteForce}, algos...)
	seeds := []int64{7, 21}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		worst := map[string][]model.Time{}
		for _, knob := range signoffKnobs {
			timer, d := signoffTimer(t, seed, knob.sdc)
			for c := model.Corner(0); int(c) < d.NumCorners(); c++ {
				for _, mode := range model.Modes {
					for _, k := range []int{1, 25} {
						CrossCheck(t, timer, cppr.Query{
							K: k, Mode: mode, Corners: cppr.CornerBit(c), CRPR: knob.crpr,
						}, withBrute...)
					}
					CheckEndpointSweep(t, timer, cppr.Query{Mode: mode, Corners: cppr.CornerBit(c), CRPR: knob.crpr})
					rep, err := timer.Run(context.Background(), cppr.Query{K: 1, Mode: mode, Corners: cppr.CornerBit(c), CRPR: knob.crpr})
					if err != nil {
						t.Fatal(err)
					}
					w, _ := rep.WorstSlack()
					worst[knob.name] = append(worst[knob.name], w)
				}
			}
		}
		for _, name := range signoffMovers {
			if Equal(worst[name], worst["off"]) {
				t.Errorf("seed %d: knob %s never moved the worst slack off %v in any corner or mode", seed, name, worst["off"])
			}
		}
	}
}

// signoffMovers are the knobs that must move the worst slack on the
// battery designs. propagated_clock restates the default, and
// same_transition_sdc is pinned to same_transition by
// TestSignoffSDCDefaultMatchesExplicit.
var signoffMovers = []string{"uncertainty", "derate", "ideal_clock", "io_delay", "same_transition"}

// TestSignoffWarmCold runs the warm/cold byte-identity legs per knob: on
// one timer, warm (journal + memo caches) vs cold (NoCache) reports must
// serialise byte-for-byte identically with each knob loaded,
// single-corner and merged.
func TestSignoffWarmCold(t *testing.T) {
	for _, knob := range signoffKnobs {
		timer, d := signoffTimer(t, 7, knob.sdc)
		for _, mode := range model.Modes {
			q := cppr.Query{K: 25, Mode: mode, CRPR: knob.crpr}
			CheckWarmColdByteIdentical(t, timer, d, q)
			q.Corners = cppr.CornerAll
			CheckWarmColdByteIdentical(t, timer, d, q)
		}
	}
}

// TestSignoffWorkerByteIdentity re-runs each knob's merged-corner
// reports under worker budgets 1, 2 and 8 and requires byte-identical
// serialisations: parallelism may change scheduling, never answers.
// With -race this doubles as the data-race probe for the new semantics
// (parity tracking, uncertainty, per-query CRPR) under the stealing
// executor.
func TestSignoffWorkerByteIdentity(t *testing.T) {
	queries := []cppr.Query{
		{K: 25, Mode: model.Setup},
		{K: 25, Mode: model.Hold},
		{K: 10, Mode: model.Setup, Corners: cppr.CornerAll},
		{K: 10, Mode: model.Hold, Corners: cppr.CornerAll},
	}
	reports := func(knobSDC string, crpr cppr.CRPRSetting, workers int) [][]byte {
		timer, d := signoffTimer(t, 7, knobSDC)
		timer.SetParallelism(cppr.Parallelism{Workers: workers, QueryThreads: workers})
		var out [][]byte
		for _, q := range queries {
			q.CRPR = crpr
			rep, err := timer.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("difftest: workers=%d: %v", workers, err)
			}
			rep.Elapsed = 0
			b, err := json.Marshal(rep.JSON(d, q.Mode, q.K))
			if err != nil {
				t.Fatalf("difftest: marshal: %v", err)
			}
			out = append(out, b)
		}
		return out
	}
	for _, knob := range signoffKnobs {
		ref := reports(knob.sdc, knob.crpr, 1)
		for _, workers := range []int{2, 8} {
			got := reports(knob.sdc, knob.crpr, workers)
			for i := range ref {
				if !bytes.Equal(ref[i], got[i]) {
					t.Fatalf("difftest: knob %s workers %d query %d differs from serial reference:\n%s\n---\n%s",
						knob.name, workers, i, ref[i], got[i])
				}
			}
		}
	}
}

// TestSignoffSDCDefaultMatchesExplicit checks the set_crpr_mode
// resolution chain: after applying an SDC that selects
// same_transition, a CRPRDefault query must report exactly what an
// explicit CRPRSameTransition query reports — and on a fresh timer
// (no SDC) the default must be same_pin.
func TestSignoffSDCDefaultMatchesExplicit(t *testing.T) {
	run := func(timer *cppr.Timer, mode model.Mode, crpr cppr.CRPRSetting) []model.Time {
		rep, err := timer.Run(context.Background(), cppr.Query{K: 25, Mode: mode, CRPR: crpr})
		if err != nil {
			t.Fatal(err)
		}
		return Slacks(rep.Paths)
	}
	withSDC, _ := signoffTimer(t, 7, "set_crpr_mode same_transition\n")
	plain, _ := signoffTimer(t, 7, "")
	for _, mode := range model.Modes {
		if def, st := run(withSDC, mode, cppr.CRPRDefault), run(withSDC, mode, cppr.CRPRSameTransition); !Equal(def, st) {
			t.Fatalf("%v: default under set_crpr_mode same_transition %v != explicit same_transition %v", mode, def, st)
		}
		if def, sp := run(plain, mode, cppr.CRPRDefault), run(plain, mode, cppr.CRPRSamePin); !Equal(def, sp) {
			t.Fatalf("%v: default without SDC %v != same_pin %v", mode, def, sp)
		}
	}
}

// TestSignoffModesMustDiverge is the conflation tripwire: on the
// divergent-clock presets — reconvergent clock trees mixing inverting
// and non-inverting cells — same_pin and same_transition must disagree
// somewhere in the top-k spectrum. An implementation that quietly maps
// one mode onto the other fails here, not in a semantics no-op.
func TestSignoffModesMustDiverge(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		timer, _ := signoffTimer(t, seed, "")
		diverged := false
		for _, mode := range model.Modes {
			for _, k := range []int{1, 25} {
				var spectra [2][]model.Time
				for i, crpr := range []cppr.CRPRSetting{cppr.CRPRSamePin, cppr.CRPRSameTransition} {
					rep, err := timer.Run(context.Background(), cppr.Query{K: k, Mode: mode, CRPR: crpr})
					if err != nil {
						t.Fatal(err)
					}
					spectra[i] = Slacks(rep.Paths)
				}
				if !Equal(spectra[0], spectra[1]) {
					diverged = true
				}
			}
		}
		if !diverged {
			t.Fatalf("seed %d: same_pin and same_transition agree on every mode and k of an inverter-mixed design — modes conflated?", seed)
		}
	}
}

// TestSameTransitionCreditDominated is the property test behind the
// engine's pruning argument: for every enumerable launch/capture pair,
// credit under same_transition is either exactly the same_pin credit
// (clock parities agree at the FFs) or exactly zero (they differ) —
// never anything in between, and never larger. This is what licenses
// reusing the same_pin candidate bounds when answering same_transition
// queries.
func TestSameTransitionCreditDominated(t *testing.T) {
	for _, seed := range []int64{7, 8, 21} {
		d := gen.MustGenerate(gen.DivergentClock(seed))
		tree := lca.New(d)
		mismatched := 0
		for _, mode := range model.Modes {
			for _, p := range baseline.AllPaths(d, mode) {
				st, err := d.RecomputePathCRPR(mode, model.CRPRSameTransition, p.Pins)
				if err != nil {
					t.Fatal(err)
				}
				if st.Credit > p.Credit {
					t.Fatalf("seed %d %v path %v: same_transition credit %v exceeds same_pin credit %v",
						seed, mode, p.Pins, st.Credit, p.Credit)
				}
				if st.Credit != p.Credit && st.Credit != 0 {
					t.Fatalf("seed %d %v path %v: same_transition credit %v is neither the same_pin credit %v nor zero",
						seed, mode, p.Pins, st.Credit, p.Credit)
				}
				if p.LaunchFF == model.NoFF {
					continue
				}
				lp := tree.Parity(d.FFs[p.LaunchFF].Clock)
				cp := tree.Parity(d.FFs[p.CaptureFF].Clock)
				if lp == cp && st.Credit != p.Credit {
					t.Fatalf("seed %d %v path %v: parities agree but same_transition credit %v != same_pin credit %v",
						seed, mode, p.Pins, st.Credit, p.Credit)
				}
				if lp != cp {
					mismatched++
					if st.Credit != 0 {
						t.Fatalf("seed %d %v path %v: parity mismatch but same_transition credit %v != 0",
							seed, mode, p.Pins, st.Credit)
					}
					if p.Credit > 0 {
						// At least one such pair makes the divergence real.
						continue
					}
				}
			}
		}
		if mismatched == 0 {
			t.Fatalf("seed %d: no parity-mismatched FF pair on a divergent-clock preset — inverter mix not reaching the tree?", seed)
		}
	}
}
