package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkBenchmarkFile reports where raw, the repository's BENCHMARK.json,
// breaks the file's limits or disagrees with the workloads and metrics
// this program runs and reports. A measured run checks the file first, so
// a change to one side alone fails every run.
func checkBenchmarkFile(raw []byte) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return err
	}
	if len(keys) != 6 {
		bad("%d keys, want exactly 6", len(keys))
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return err
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		bad("%d workloads, %d end-to-end and %d per-layer metrics: outside 2-8, 1-16, 1-128",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		bad("run_seconds %d outside 1-60", bf.RunSeconds)
	}
	if strings.Join(bf.Command, " ") != "bash bench/run.sh" || strings.Join(bf.Paths, " ") != "bench" {
		bad("command %q, paths %q", bf.Command, bf.Paths)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) || seen[n] {
			bad("%s name %q is malformed or repeated", kind, n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		bad("%d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			bad("workload %d is %q %q, the program has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			bad("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		bad("%d end-to-end metrics, the program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		name("metric", m.Name)
		if i < len(endToEnd) {
			if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
				bad("end-to-end %d is %+v, the program has %+v", i, m, want)
			}
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			bad("end-to-end %s: bad unit %q or bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if len(bf.EndToEnd) > 0 {
		setup := bf.EndToEnd[0]
		if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
			bad("first end-to-end metric is %+v, want setup_s in s, lower", setup)
		}
		for _, m := range bf.EndToEnd {
			if m.Bound > setup.Bound {
				bad("%s has a larger bound than setup_s", m.Name)
			}
		}
	}

	if len(bf.PerLayer) != len(perLayer) {
		bad("%d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name("metric", m.Name)
		if i < len(perLayer) {
			if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
				bad("per-layer %d is %+v, the program has %+v", i, m, want)
			}
		}
		if !unitRE.MatchString(m.Unit) {
			bad("per-layer %s: bad unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			bad("%s: better is %q", m.Name, m.Better)
		}
	}
	return errors.Join(errs...)
}
