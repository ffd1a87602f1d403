package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads the untraced run records of JSON-lines files, by
// workload.
func readRecords(files []string) (map[string][]record, error) {
	out := map[string][]record{}
	for _, name := range files {
		if err := readRecordFile(name, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func readRecordFile(name string, out map[string][]record) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("%s:%d: %w", name, line, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// verdict compares side b to side a for one metric. It is unresolved
// when either side's quartile spread, as a share of its median, exceeds
// the bound, unless every b run is better than every a run.
func verdict(m metric, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = (mb - ma) / ma
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	sa, sb := spread(a), spread(b)
	switch {
	case allBetter(m, a, b):
		return delta, "better"
	case sa > m.Bound || sb > m.Bound || math.IsNaN(sa) || math.IsNaN(sb):
		return delta, "unresolved"
	case worse > m.Bound:
		return delta, "worse"
	case -worse > m.Bound:
		return delta, "better"
	}
	return delta, "ok"
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	return (q3 - q1) / q2
}

// allBetter reports whether every b value beats every a value.
func allBetter(m metric, a, b []float64) bool {
	if len(a) < 2 || len(b) < 2 {
		return false
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compare prints, per workload and end-to-end metric, each side's median
// and quartiles, the change, the bound and a verdict. It returns 1 when a
// metric got worse or a run failed, else 0.
func compare(w io.Writer, filesA, filesB []string) int {
	a, err := readRecords(filesA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(filesB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-16s %5s %28s %28s %8s %6s  %s\n", "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, side := range [][]record{ra, rb} {
			for _, rec := range side {
				if !rec.Correct || rec.Failed > 0 {
					fmt.Fprintf(w, "%-13s run with seed %d failed %d of %d operations\n", wl.name, rec.Stamp.Seed, rec.Failed, rec.Attempted)
					code = 1
				}
			}
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			delta, v := verdict(m, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-16s %2d/%-2d %28s %28s %+7.1f%% %5.0f%%  %s\n", wl.name, m.Name, len(va), len(vb),
				quartileText(va), quartileText(vb), 100*delta, 100*m.Bound, v)
		}
	}
	return code
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, rec := range recs {
		if v, ok := rec.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func quartileText(vals []float64) string {
	q1, q2, q3 := quartiles(vals)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
