package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// tinyCfg keeps experiment smoke tests fast: two small designs, small k.
func tinyCfg(buf *bytes.Buffer) Config {
	return Config{
		Out:     buf,
		Scale:   0.004,
		Designs: []string{"vga_lcdv2", "leon2"},
		Ks:      []int{1, 10},
		Threads: 2,
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table III", "vga_lcdv2", "leon2", "FF connectivity", "(56)", "(85)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 output missing %q", want)
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table4 smoke is slow")
	}
	var buf bytes.Buffer
	if err := Table4(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table IV", "ours-2T", "pairwise-2T", "blockwise-1T", "bnb-2T", "Average runtime ratios"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5And6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smokes are slow")
	}
	var buf bytes.Buffer
	if err := Fig5(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5") || !strings.Contains(buf.String(), "10000") {
		t.Error("Fig5 output incomplete")
	}
	buf.Reset()
	if err := Fig6(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 6", "16", "batch RT", "batch speedup", "identical", "true", "best speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 output missing %q:\n%s", want, out)
		}
	}
}

// TestFig6SpeedupFloor exercises the MinBatchSpeedup gate in both of its
// host regimes: a trivially clearable floor always passes, and then
// either (multi-core) an absurd floor must fail, or (single-core) the
// gate must degrade to the logged skip because wall-clock speedup is
// impossible there.
func TestFig6SpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 6 smoke is slow")
	}
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.MinBatchSpeedup = 0.01
	if err := Fig6(cfg); err != nil {
		t.Fatalf("trivially clearable floor failed: %v", err)
	}
	if runtime.NumCPU() == 1 {
		if !strings.Contains(buf.String(), "not enforced on a single-core host") {
			t.Error("single-core skip line missing")
		}
		buf.Reset()
		cfg.MinBatchSpeedup = 1000
		if err := Fig6(cfg); err != nil {
			t.Fatalf("floor armed on a single-core host: %v", err)
		}
	} else {
		buf.Reset()
		cfg.MinBatchSpeedup = 1e9
		if err := Fig6(cfg); err == nil {
			t.Fatal("absurd floor passed on a multi-core host")
		} else if !strings.Contains(err.Error(), "below the") {
			t.Fatalf("wrong error for floor violation: %v", err)
		}
	}
}

func TestAccuracySmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Accuracy(tinyCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Accuracy audit") || !strings.Contains(out, "OK") {
		t.Errorf("Accuracy output incomplete:\n%s", out)
	}
}

func TestUnknownDesignFails(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.Designs = []string{"nope"}
	if err := Table3(cfg); err == nil {
		t.Fatal("unknown design accepted")
	}
	if err := Table4(cfg); err == nil {
		t.Fatal("unknown design accepted by Table4")
	}
}

func TestColumnsCollapseAtOneThread(t *testing.T) {
	cols := table4Columns(1, false)
	if len(cols) != 4 {
		t.Fatalf("expected 4 columns at 1 thread, got %d", len(cols))
	}
	for _, c := range cols {
		if c.label == "ours-1T" && c.threads != 1 {
			t.Error("ours-1T column has wrong threads")
		}
	}
	if got := len(table4Columns(8, false)); got != 5 {
		t.Fatalf("expected 5 columns at 8 threads, got %d", got)
	}
	if got := len(table4Columns(1, true)); got != 1 {
		t.Fatalf("expected 1 column ours-only, got %d", got)
	}
}

func TestHostInfo(t *testing.T) {
	if !strings.Contains(HostInfo(), "CPU core") {
		t.Error("HostInfo malformed")
	}
}
