// Command bench is the repository's benchmark: four open-loop compliance
// workloads driven against the real assembly (core.Domain, gateway, sbus,
// cep, policy, audit, store, obligation, federation over TCP loopback) from
// one process, every verdict checked against a reference model, every
// metric printed by name with its unit. See README.md in this directory.
//
//	go run ./bench                                  every workload, plain then traced
//	go run ./bench --workload ward_pipeline --seed 7 --seconds 15 --trace 0
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// A workloadDef names one workload and the function that runs it.
type workloadDef struct {
	name string
	run  func(cfg *config) (*outcome, error)
}

var workloads = []workloadDef{
	{"ward_pipeline", func(cfg *config) (*outcome, error) {
		return runEdge(cfg, edgeOpts{name: "ward_pipeline", patterns: true, refRate: wardRefRate, satRate: wardSatRate})
	}},
	{"durable_evidence", func(cfg *config) (*outcome, error) {
		return runEdge(cfg, edgeOpts{name: "durable_evidence", durable: true, refRate: durableRefRate, satRate: durableSatRate})
	}},
	{"federated_relay", runFederated},
	{"reconfig_compliance", runReconfig},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// buildDir holds everything a run writes besides its spans: bench/run.sh
// puts the build cache and the binary there, runOne the data directories.
const buildDir = ".bench_build"

// hostHeader states what the numbers were measured on.
func hostHeader(dataRoot string) string {
	if abs, err := filepath.Abs(dataRoot); err == nil {
		dataRoot = abs
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s data-dir-fs=%s federation=TCP loopback",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		fsTypeOf(dataRoot))
}

// runOne executes one workload run inside its own temp root, which is
// removed whatever happens.
func runOne(def workloadDef, cfg config) (o *outcome, err error) {
	base := filepath.Join(buildDir, "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	cfg.tmpRoot = root
	return def.run(&cfg)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, plain then traced)")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		out      = flag.String("out", "", "append each run's result as a JSON line to this file (for -compare)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 3,
		outDir: filepath.Join("bench", "out")}

	// runAndPrint runs one workload in one mode and prints its table; ok is
	// false when the run produced a wrong verdict. A run whose load
	// generator could not keep its schedule (a starved host) says so on
	// standard error and in its -out record, but still reports: its verdicts
	// were checked and correct, and one such run among ten must not void the
	// other nine.
	runAndPrint := func(def workloadDef, c config) (*outcome, bool) {
		o, err := runOne(def, c)
		if err == nil {
			o.printTable(os.Stdout)
			err = appendResult(*out, o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
			os.Exit(1)
		}
		for _, why := range o.invalid {
			fmt.Fprintf(os.Stderr, "bench: %s: INVALID LOAD: %s\n", def.name, why)
		}
		return o, o.failed == 0
	}
	fmt.Println(hostHeader(buildDir))

	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		o, ok := runAndPrint(def, cfg)
		if !ok {
			os.Exit(1) // a wrong verdict is not a result
		}
		fmt.Println(o.resultLine())
		return
	}

	// No workload named: the whole benchmark, plain then traced, and a
	// summary that claims nothing — this program only measures.
	bad := 0
	var names []string
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			if _, ok := runAndPrint(def, c); !ok {
				bad++
			}
		}
		names = append(names, def.name)
	}
	// Field order is the output order: the summary ends with the claim,
	// and this program never makes one.
	summary, _ := json.Marshal(struct {
		Workloads  []string `json:"workloads"`
		Seed       uint64   `json:"seed"`
		Seconds    float64  `json:"seconds"`
		EndToEnd   int      `json:"end_to_end_metrics"`
		PerLayer   int      `json:"per_layer_metrics"`
		RunsFailed int      `json:"runs_failed"`
		Claim      *string  `json:"claim"`
	}{names, cfg.seed, cfg.seconds, len(endToEnd), len(perLayer), bad, nil})
	fmt.Println(strings.TrimSpace(string(summary)))
	if bad > 0 {
		os.Exit(1)
	}
}

// appendResult appends the run's metrics as one JSON line to path ("" does
// nothing); -compare reads such files.
func appendResult(path string, o *outcome) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{ // Encode ends the line
		"workload": o.workload, "seed": o.seed, "traced": o.traced,
		"attempted": o.attempted, "failed": o.failed, "invalid": o.invalid, "metrics": o.res.vals,
	})
	return errors.Join(err, f.Close())
}
