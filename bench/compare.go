package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is BENCHMARK.json: the contract this program is run under.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// A resultSet holds the values of each metric per workload over the runs
// of one result file (JSON lines, as written by -out). Traced runs and runs
// whose load generator could not keep its schedule are left out; the
// latter are reported.
type resultSet map[string]map[string][]float64

func loadResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	skipped := 0
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line struct {
			Workload string             `json:"workload"`
			Traced   bool               `json:"traced"`
			Invalid  []string           `json:"invalid"`
			Metrics  map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if line.Traced {
			continue // end-to-end numbers come from untraced runs only
		}
		if len(line.Invalid) > 0 {
			skipped++
			continue
		}
		if set[line.Workload] == nil {
			set[line.Workload] = map[string][]float64{}
		}
		for name, v := range line.Metrics {
			set[line.Workload][name] = append(set[line.Workload][name], v)
		}
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d runs with an invalid load generator left out\n", path, skipped)
	}
	return set, sc.Err()
}

// compareFiles prints, per workload, one row per end-to-end metric with both
// sides' medians and quartiles and the bound from BENCHMARK.json, and a
// verdict: ok, worse (B's median is worse than A's by more than the bound)
// or unresolved (either side's interquartile spread is wider than the bound,
// so the comparison cannot tell). It returns the process exit code: 0 only
// when every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := loadResults(pathA)
	if err == nil {
		var b resultSet
		if b, err = loadResults(pathB); err == nil {
			return compareSets(w, spec, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareSets(w io.Writer, spec *benchmarkSpec, a, b resultSet) int {
	// spread is the interquartile distance as a share of the median.
	spread := func(q1, q2, q3 float64) float64 {
		if q2 == 0 {
			return 0
		}
		return (q3 - q1) / q2
	}
	code := 0
	for _, wl := range spec.Workloads {
		if a[wl.Name] == nil && b[wl.Name] == nil {
			continue // neither file ran this workload
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		fmt.Fprintf(w, "  %-22s %-5s %12s %12s %12s | %12s %12s %12s | %6s %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-22s %-5s missing on one side%62s unresolved\n", m.Name, m.Unit, "")
				code = 1
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			verdict := "ok"
			worse := b2 > a2*(1+m.Bound)
			if m.Better == "higher" {
				worse = b2 < a2*(1-m.Bound)
			}
			switch {
			case worse:
				verdict = "worse"
			case m.Name != "setup_s" && (spread(a1, a2, a3) > m.Bound || spread(b1, b2, b3) > m.Bound):
				verdict = "unresolved"
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(w, "  %-22s %-5s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %5.0f%% %s\n",
				m.Name, m.Unit, a1, a2, a3, b1, b2, b3, m.Bound*100, verdict)
		}
	}
	return code
}
