package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// toyConfig is a run at toy scale: small topologies, low rates, a fraction
// of a second, everything under the test's own temp root.
func toyConfig(t *testing.T, traced bool) config {
	t.Helper()
	return config{seed: 7, seconds: 0.2, trace: traced, toy: true, setups: 1,
		tmpRoot: t.TempDir(), outDir: t.TempDir()}
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's metric
// lists to each other and to the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program, limit %d", kind, len(got), len(want), limit)
			return
		}
		seen := map[string]bool{}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%s]: bad or repeated name, or bad unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, m.Name, m.Better)
			}
			if kind == "end_to_end" && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16)
	check("per_layer", spec.PerLayer, perLayer, 128)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must lead the end-to-end metrics, in seconds, lower better")
	}
}

// TestWorkloadsSmoke runs every workload plain and traced at toy scale: the
// oracle must pass, the result line must carry exactly the metrics the mode
// promises, and the traced run must leave its spans where it was told to.
func TestWorkloadsSmoke(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := toyConfig(t, traced)
			o, err := def.run(&cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if o.failed != 0 || len(o.invalid) != 0 { // toy runs skip the guard: invalid stays empty
				t.Errorf("%s traced=%v: failed=%d %v %v", def.name, traced, o.failed, o.reasons, o.invalid)
			}
			if o.attempted < 1 {
				t.Errorf("%s traced=%v: nothing attempted", def.name, traced)
			}
			var line struct {
				Correct bool                  `json:"correct"`
				Metrics map[string]metricJSON `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(o.resultLine()), &line); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !line.Correct || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct=%v, %d metrics, want %d", def.name, traced, line.Correct, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", def.name, traced, d.name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", def.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, def.name+"-spans.jsonl")); err != nil {
					t.Errorf("%s: traced run left no spans: %v", def.name, err)
				}
			}
		}
	}
}

// TestOracleCatchesFlippedVerdict inverts the reference model's expectation
// for one message of each workload: the same correct program must now be
// reported as failing.
func TestOracleCatchesFlippedVerdict(t *testing.T) {
	for _, def := range workloads {
		cfg := toyConfig(t, false)
		cfg.flip = true
		o, err := def.run(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if o.failed == 0 {
			t.Errorf("%s: a flipped verdict went unnoticed", def.name)
		}
	}
}
