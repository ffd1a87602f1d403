package lca

import (
	"fmt"
	"math/rand"
	"testing"

	"fastcppr/model"
)

// randomTreeDesign builds a design whose clock tree is a random tree with
// nBufs internal nodes and nFFs flip-flops attached to random nodes.
// Arc delays are random with Early <= Late so credits are non-trivial.
func randomTreeDesign(t testing.TB, seed int64, nBufs, nFFs int) *model.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := model.NewBuilder(fmt.Sprintf("rt-%d", seed), model.Ns(10))
	nodes := []model.PinID{b.AddClockRoot("clk")}
	for i := 0; i < nBufs; i++ {
		n := b.AddClockBuf(fmt.Sprintf("b%d", i))
		p := nodes[rng.Intn(len(nodes))]
		e := model.Time(rng.Intn(50))
		b.AddArc(p, n, model.Window{Early: e, Late: e + model.Time(rng.Intn(30))})
		nodes = append(nodes, n)
	}
	for i := 0; i < nFFs; i++ {
		ff := b.AddFF(fmt.Sprintf("ff%d", i), 10, 5, model.Window{Early: 20, Late: 30})
		p := nodes[rng.Intn(len(nodes))]
		e := model.Time(rng.Intn(50))
		b.AddArc(p, ff.Clock, model.Window{Early: e, Late: e + model.Time(rng.Intn(30))})
	}
	d, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

// ffClockPins returns the FF clock pins of d.
func ffClockPins(d *model.Design) []model.PinID {
	out := make([]model.PinID, 0, d.NumFFs())
	for _, ff := range d.FFs {
		out = append(out, ff.Clock)
	}
	return out
}

func TestLCAMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := randomTreeDesign(t, seed, 30, 40)
		tr := New(d)
		cks := ffClockPins(d)
		rng := rand.New(rand.NewSource(seed + 100))
		for q := 0; q < 500; q++ {
			u := cks[rng.Intn(len(cks))]
			v := cks[rng.Intn(len(cks))]
			want := d.NaiveLCA(u, v)
			if got := tr.LCA(u, v); got != want {
				t.Fatalf("seed %d: LCA(%s,%s) = %s, want %s", seed,
					d.PinName(u), d.PinName(v), d.PinName(got), d.PinName(want))
			}
			if got := tr.LCADepth(u, v); got != int(d.ClockDepth[want]) {
				t.Fatalf("LCADepth = %d, want %d", got, d.ClockDepth[want])
			}
		}
	}
}

func TestLCAIdentityAndSymmetry(t *testing.T) {
	d := randomTreeDesign(t, 42, 20, 25)
	tr := New(d)
	cks := ffClockPins(d)
	for _, u := range cks {
		if tr.LCA(u, u) != u {
			t.Fatalf("LCA(u,u) != u for %s", d.PinName(u))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 200; q++ {
		u := cks[rng.Intn(len(cks))]
		v := cks[rng.Intn(len(cks))]
		if tr.LCA(u, v) != tr.LCA(v, u) {
			t.Fatalf("LCA not symmetric for %s,%s", d.PinName(u), d.PinName(v))
		}
	}
}

// ancestorAt returns f_dep(u), the ancestor of clock pin u at depth dep,
// by walking the design's clock parents.
func ancestorAt(d *model.Design, u model.PinID, dep int) model.PinID {
	for int(d.ClockDepth[u]) > dep {
		u = d.ClockParent[u]
	}
	return u
}

func TestArrivalAndCreditMatchModel(t *testing.T) {
	d := randomTreeDesign(t, 5, 20, 20)
	tr := New(d)
	for _, u := range tr.ClockPins() {
		if got, want := tr.Arrival(u), d.ClockArrival(u); got != want {
			t.Fatalf("Arrival(%s) = %v, want %v", d.PinName(u), got, want)
		}
		if got, want := tr.Credit(u), d.Credit(u); got != want {
			t.Fatalf("Credit(%s) = %v, want %v", d.PinName(u), got, want)
		}
		if tr.Depth(u) != int(d.ClockDepth[u]) {
			t.Fatalf("Depth(%s) mismatch", d.PinName(u))
		}
	}
}

func TestCreditMonotoneInDepth(t *testing.T) {
	// credit(f_d(u)) must be non-decreasing in d: windows only widen
	// down the tree. This property underpins the correctness lemma for
	// level-d candidate sets.
	d := randomTreeDesign(t, 11, 30, 30)
	tr := New(d)
	for _, u := range ffClockPins(d) {
		prev := model.Time(0)
		for dep := 0; dep <= tr.Depth(u); dep++ {
			c := tr.Credit(ancestorAt(d, u, dep))
			if c < prev {
				t.Fatalf("credit(f_%d(%s)) = %v < credit at depth %d (%v)",
					dep, d.PinName(u), c, dep-1, prev)
			}
			prev = c
		}
	}
}

func TestFillLevel(t *testing.T) {
	d := randomTreeDesign(t, 13, 25, 35)
	tr := New(d)
	var lt LevelTables
	for dep := 0; dep < d.Depth; dep++ {
		tr.FillLevel(dep, &lt)
		for _, u := range tr.ClockPins() {
			du := tr.Depth(u)
			g := tr.GroupOf(&lt, u)
			if du <= dep {
				if g != -1 {
					t.Fatalf("level %d: pin %s (depth %d) has group %d, want -1", dep, d.PinName(u), du, g)
				}
				continue
			}
			wantGroup := tr.compact(ancestorAt(d, u, dep+1))
			if g != wantGroup {
				t.Fatalf("level %d: group(%s) = %d, want %d", dep, d.PinName(u), g, wantGroup)
			}
			wantCredit := tr.Credit(ancestorAt(d, u, dep))
			if got := tr.CreditAtDOf(&lt, u); got != wantCredit {
				t.Fatalf("level %d: creditAtD(%s) = %v, want %v", dep, d.PinName(u), got, wantCredit)
			}
		}
	}
}

func TestFillLevelReuse(t *testing.T) {
	// The same LevelTables must be reusable across levels and designs of
	// smaller size without stale state leaking into results.
	d := randomTreeDesign(t, 17, 30, 30)
	tr := New(d)
	var lt LevelTables
	tr.FillLevel(0, &lt)
	first := append([]int32(nil), lt.Group...)
	tr.FillLevel(d.Depth-1, &lt)
	tr.FillLevel(0, &lt)
	for i := range first {
		if lt.Group[i] != first[i] {
			t.Fatalf("FillLevel not idempotent at index %d", i)
		}
	}
}

func TestCompactPanicsOnDataPin(t *testing.T) {
	b := model.NewBuilder("p", model.Ns(1))
	clk := b.AddClockRoot("clk")
	ff := b.AddFF("ff", 1, 1, model.Window{Early: 1, Late: 2})
	b.AddArc(clk, ff.Clock, model.Window{Early: 1, Late: 2})
	g := b.AddComb("g")
	b.AddArc(ff.Q, g, model.Window{Early: 1, Late: 2})
	d := b.MustBuild()
	tr := New(d)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-clock pin")
		}
	}()
	tr.Credit(g)
}

func TestSingleNodeTree(t *testing.T) {
	// A design whose clock tree is just the root plus one FF.
	b := model.NewBuilder("tiny", model.Ns(1))
	clk := b.AddClockRoot("clk")
	ff := b.AddFF("ff", 1, 1, model.Window{Early: 1, Late: 2})
	b.AddArc(clk, ff.Clock, model.Window{Early: 3, Late: 8})
	d := b.MustBuild()
	tr := New(d)
	if tr.NumClockPins() != 2 {
		t.Fatalf("NumClockPins = %d, want 2", tr.NumClockPins())
	}
	if tr.LCA(ff.Clock, ff.Clock) != ff.Clock {
		t.Error("self LCA wrong")
	}
	if tr.LCA(clk, ff.Clock) != clk {
		t.Error("root LCA wrong")
	}
	if tr.Credit(ff.Clock) != 5 {
		t.Errorf("credit = %v, want 5", tr.Credit(ff.Clock))
	}
	if d.Depth != 2 {
		t.Errorf("Depth = %d, want 2", d.Depth)
	}
}

func TestDeepChainTree(t *testing.T) {
	// Degenerate chain: depth == number of bufs; exercises the Euler
	// tour's recursion depth and the RMQ table height.
	b := model.NewBuilder("chain", model.Ns(1))
	prev := b.AddClockRoot("clk")
	const depth = 300
	for i := 0; i < depth; i++ {
		n := b.AddClockBuf(fmt.Sprintf("c%d", i))
		b.AddArc(prev, n, model.Window{Early: 1, Late: 2})
		prev = n
	}
	ff := b.AddFF("ff", 1, 1, model.Window{Early: 1, Late: 2})
	b.AddArc(prev, ff.Clock, model.Window{Early: 1, Late: 2})
	d := b.MustBuild()
	tr := New(d)
	if got := tr.Depth(ff.Clock); got != depth+1 {
		t.Fatalf("Depth = %d, want %d", got, depth+1)
	}
	if got := tr.LCA(ff.Clock, d.Root); got != d.Root {
		t.Fatalf("LCA(ff, root) = %s", d.PinName(got))
	}
	if got := tr.Credit(ff.Clock); got != model.Time(depth+1) {
		t.Fatalf("Credit = %v, want %d", got, depth+1)
	}
	for dep := 0; dep <= depth+1; dep += 37 {
		a := ancestorAt(d, ff.Clock, dep)
		if got := tr.LCA(ff.Clock, a); got != a {
			t.Fatalf("LCA(ff, ancestor at depth %d) = %s, want %s", dep, d.PinName(got), d.PinName(a))
		}
		if tr.LCADepth(ff.Clock, a) != dep {
			t.Fatalf("LCADepth(ff, ancestor at depth %d) = %d", dep, tr.LCADepth(ff.Clock, a))
		}
	}
}

func BenchmarkLCAEuler(b *testing.B) {
	d := randomTreeDesign(b, 1, 2000, 4000)
	tr := New(d)
	cks := ffClockPins(d)
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]model.PinID, 1024)
	for i := range pairs {
		pairs[i] = [2]model.PinID{cks[rng.Intn(len(cks))], cks[rng.Intn(len(cks))]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		tr.LCA(p[0], p[1])
	}
}
