package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastcppr/gen"
	"fastcppr/internal/mmheap"
	"fastcppr/internal/sta"
	"fastcppr/model"
	"fastcppr/sdc"
)

// refDesign is one design of the dense-reference sweep.
type refDesign struct {
	name        string
	d           *model.Design
	propThreads []int
}

// jitteredView returns d's view at an added corner whose every arc delay
// is scaled by an independent seeded factor in [0.75, 1.25], so the
// corner's critical paths differ from the base corner's.
func jitteredView(tb testing.TB, d *model.Design, seed int64) *model.Design {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	nd, c, err := d.WithDerivedCorner("jitter", func(_ int, w model.Window) model.Window {
		f := 1 + 0.25*(2*rng.Float64()-1)
		return model.Window{
			Early: model.Time(math.Round(float64(w.Early) * f)),
			Late:  model.Time(math.Round(float64(w.Late) * f)),
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	return nd.View(c)
}

// denseReferenceDesigns lists the sweep: every preset down-scaled with a
// jittered corner, seeded medium designs (run with the partitioned
// kernel too), inverter-mixed clock trees whose two CRPR modes differ, a
// two-domain forest, and signoff uncertainty plus derates applied
// through sdc.
func denseReferenceDesigns(tb testing.TB) []refDesign {
	tb.Helper()
	var out []refDesign
	for _, name := range gen.PresetNames() {
		spec, err := gen.PresetSpec(name, 0.004)
		if err != nil {
			tb.Fatal(err)
		}
		d := jitteredView(tb, gen.MustGenerate(spec), 400+int64(len(name)))
		out = append(out, refDesign{name: name, d: d, propThreads: []int{1}})
	}
	for _, seed := range []int64{0, 1, 2, 3, 310, 311} {
		out = append(out, refDesign{name: fmt.Sprintf("medium-%d", seed), d: gen.MustGenerate(gen.Medium(seed)), propThreads: []int{1, 3}})
	}
	for seed := int64(0); seed < 3; seed++ {
		out = append(out, refDesign{name: fmt.Sprintf("divergent-%d", seed), d: gen.MustGenerate(gen.DivergentClock(seed)), propThreads: []int{1}})
	}
	out = append(out, refDesign{name: "two-domain", d: gen.MustGenerate(multiDomainSpec(1, 2)), propThreads: []int{1}})
	c, err := sdc.ParseString("set_clock_uncertainty -setup 60ps\nset_clock_uncertainty -hold 25ps\nset_timing_derate -early 0.95 -late 1.05\n")
	if err != nil {
		tb.Fatal(err)
	}
	signoff, _, err := c.Apply(gen.MustGenerate(gen.Medium(5)))
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, refDesign{name: "medium-5-signoff", d: signoff, propThreads: []int{1}})
}

// fullPlan is the job plan with nothing skipped: every clock level, the
// self-loop and PI jobs, and the cross and PO jobs whether or not the
// design needs them. jobPlan is this list minus jobs that cannot keep a
// candidate.
func (e *Engine) fullPlan() []jobSpec {
	var jobs []jobSpec
	for d := 0; d < e.d.Depth; d++ {
		jobs = append(jobs, jobSpec{kind: jobLevel, level: d})
	}
	return append(jobs, jobSpec{kind: jobSelfLoop}, jobSpec{kind: jobPI}, jobSpec{kind: jobCross}, jobSpec{kind: jobPO})
}

// denseScratch returns a scratch over a Prop that only the dense
// reference kernel (Reset + RunCtx) ever touches.
func denseScratch() *scratch {
	return &scratch{heap: mmheap.NewKey[*cand](), prop: new(sta.Prop)}
}

// runDense runs spec's seed and propagate phases on the dense reference
// kernel: the production seed offers into a full-graph Prop, then the
// full topological walk.
func (e *Engine) runDense(tb testing.TB, s *scratch, spec jobSpec, opts Options) {
	tb.Helper()
	s.prop.Reset(e.d.NumPins())
	lt, ffs := e.jobTables(spec, opts)
	if _, ok := e.offerSeeds(s, spec, &opts, lt, ffs); !ok {
		tb.Fatal("dense reference seeding canceled")
	}
	s.prop.RunCtx(e.d, opts.Mode == model.Setup, nil)
}

// TestJobsMatchDenseReference pins every candidate-generation job to the
// dense reference kernel. For each job of the full plan it runs the
// production sparse job (reset, seed, RunSparse or RunSparseParallel,
// collect) and the same seed offers through sta's dense Reset/RunCtx
// followed by the production collect phase, and requires identical
// outputs at every budget k: slack, pop index, capture FF, launch, LCA
// depth, credit and reconstructed pins. Jobs jobPlan skips must keep
// nothing, which makes the skip exact, and each job's endpointBest sweep
// must match its dense counterpart.
func TestJobsMatchDenseReference(t *testing.T) {
	for _, rd := range denseReferenceDesigns(t) {
		t.Run(rd.name, func(t *testing.T) {
			e := NewEngine(rd.d)
			sparse := e.getScratch(nil)
			defer e.putScratch(sparse)
			dense := denseScratch()
			for _, pt := range rd.propThreads {
				for _, mode := range model.Modes {
					for _, crpr := range []model.CRPRMode{model.CRPRSamePin, model.CRPRSameTransition} {
						opts := Options{Mode: mode, CRPR: crpr, IncludePOs: true, PropThreads: pt}
						what := fmt.Sprintf("threads %d %v %v", pt, mode, crpr)
						checkJobsAgainstDense(t, e, sparse, dense, opts, what)
					}
				}
			}
		})
	}
}

// checkJobsAgainstDense is TestJobsMatchDenseReference for one query
// shape on one engine, at budgets 40 and 1. The k=1 collect reuses each
// kernel's completed propagation.
func checkJobsAgainstDense(t *testing.T, e *Engine, sparse, dense *scratch, opts Options, what string) {
	t.Helper()
	ks := []int{40, 1}
	opts.K = ks[0]
	planned := map[jobSpec]bool{}
	for _, spec := range e.jobPlan(opts) {
		planned[spec] = true
	}
	n := len(e.d.FFs)
	slacks, valid := make([]model.Time, n), make([]bool, n)
	refSlacks, refValid := make([]model.Time, n), make([]bool, n)
	for j, spec := range e.fullPlan() {
		where := fmt.Sprintf("%s job %d (kind %d level %d)", what, j, spec.kind, spec.level)
		e.runDense(t, dense, spec, opts)
		for ki, k := range ks {
			var outs []*jobOut
			var produced int
			if ki == 0 {
				var st Stats
				outs, st = e.runJob(sparse, spec, j, k, opts, &globalBound{})
				produced = st.Candidates
			} else {
				outs, produced = e.collectJob(sparse, spec, j, k, opts, &globalBound{})
			}
			got := e.materialiseOuts(sparse.prop, outs)
			refOuts, refProduced := e.runJobOn(dense, dense.prop, spec, j, k, opts, &globalBound{})
			want := e.materialiseOuts(dense.prop, refOuts)

			if produced != refProduced || len(got) != len(want) {
				t.Fatalf("%s k=%d: sparse produced %d kept %d, dense produced %d kept %d",
					where, k, produced, len(got), refProduced, len(want))
			}
			for i := range got {
				g, w := &got[i], &want[i]
				if g.slack != w.slack || g.idx != w.idx || g.capFF != w.capFF || g.launch != w.launch ||
					g.lcaDepth != w.lcaDepth || g.credit != w.credit || !equalPins(g.pins, w.pins) {
					t.Fatalf("%s k=%d: output %d differs\nsparse: %+v\ndense:  %+v", where, k, i, *g, *w)
				}
			}
			if !planned[spec] && len(want) != 0 {
				t.Fatalf("%s k=%d: jobPlan skips the job, but it keeps %d candidates", where, k, len(want))
			}
		}
		if spec.kind == jobPO {
			continue // PO endpoints are not FF tests
		}

		e.endpointBest(sparse, spec, opts, slacks, valid)
		for i := range refValid {
			refValid[i] = false
		}
		e.roots(dense, spec, &opts, func(_ model.PinID, capFF model.FFID, _ int32, slack model.Time) {
			refSlacks[capFF], refValid[capFF] = slack, true
		})
		for i := range valid {
			if valid[i] != refValid[i] || (valid[i] && slacks[i] != refSlacks[i]) {
				t.Fatalf("%s: endpoint %d sweep differs: sparse (%v, %v), dense (%v, %v)",
					where, i, slacks[i], valid[i], refSlacks[i], refValid[i])
			}
		}
	}
}

func equalPins(a, b []model.PinID) bool {
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

// TestEndpointBestZeroAllocs pins the steady-state allocation count of a
// level job's kernel work inside the engine — endpointBest covers the
// reset/seed/propagate/capture cycle shared with runJob, minus the
// per-candidate output that necessarily allocates — at zero per job.
func TestEndpointBestZeroAllocs(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(4))
	e := NewEngine(d)
	s := e.getScratch(nil)
	defer e.putScratch(s)
	opts := Options{K: 1, Mode: model.Setup}
	slacks := make([]model.Time, len(d.FFs))
	valid := make([]bool, len(d.FFs))

	specs := []jobSpec{
		{kind: jobLevel, level: 0},
		{kind: jobLevel, level: 1},
		{kind: jobSelfLoop},
		{kind: jobPI},
	}
	for _, spec := range specs {
		e.endpointBest(s, spec, opts, slacks, valid) // warm-up: arrays, seed lists, level tables
		if allocs := testing.AllocsPerRun(20, func() {
			e.endpointBest(s, spec, opts, slacks, valid)
		}); allocs != 0 {
			t.Errorf("endpointBest kind=%d level=%d allocates %v per job, want 0", spec.kind, spec.level, allocs)
		}
	}
}
