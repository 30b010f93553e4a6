package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"lciot/internal/telemetry"
)

// Continuous diagnostic capture: when the domain's health crosses to a
// worse rung, or lane-load skew exceeds the threshold under real load, the
// domain snapshots the evidence an operator needs for a post-hoc diagnosis
// — the health report, the skew report, the span ring, a heap profile and
// a short CPU profile — into DataDir/diag/<unixnano>-<reason>/. The
// capture runs on its own goroutine (the health poll that noticed the
// transition is not delayed), at most one at a time, and the directory is
// pruned to diagKeep snapshots BEFORE a new one is created, so the
// retention cap holds even if the process dies mid-capture. Domains
// without a DataDir never capture.

const (
	// diagKeep bounds retained snapshot directories under DataDir/diag.
	diagKeep = 5
	// diagSkewMinLoad gates skew captures on real traffic: a near-idle
	// domain's imbalance is noise, not signal.
	diagSkewMinLoad = 10000
)

// Capture tuning; package variables so tests can shrink them.
var (
	// diagCPUProfileNs is how long the CPU profile samples (nanoseconds;
	// atomic because captures run on their own goroutines). The profile is
	// written last and best-effort: if the process dies mid-profile the
	// earlier files still land, and if another capture (or the operator's
	// /debug/pprof) already holds the process-wide CPU profiler, the file
	// is simply left empty.
	diagCPUProfileNs atomic.Int64
	// diagSkewThreshold is the Gini-style imbalance above which a capture
	// triggers (0.5 ≈ one lane carrying most of the load).
	diagSkewThreshold = 0.5
	// diagSkewDebounce is the minimum spacing between skew evaluations —
	// skew moves slowly, and each evaluation costs a SkewReport scan.
	diagSkewDebounce = 30 * time.Second
)

func init() { diagCPUProfileNs.Store(int64(5 * time.Second)) }

// maybeCaptureDiag starts an asynchronous diagnostic capture, unless one
// is already running, the domain has no DataDir, or the domain is closed
// (closing itself moves health to a worse rung, and a capture then would
// write into a data directory its owner is done with). Safe to call from
// any goroutine, including under healthMu.
func (d *Domain) maybeCaptureDiag(reason string) {
	if d.dataDir == "" {
		return
	}
	d.diagMu.Lock()
	defer d.diagMu.Unlock()
	if d.closed.Load() || !d.diagInflight.CompareAndSwap(false, true) {
		return
	}
	d.diagWG.Add(1)
	go func() {
		defer d.diagWG.Done()
		d.captureDiag(reason)
	}()
}

// checkSkewDiag evaluates the skew trigger at most once per debounce
// window. Called from Health polls, so a status loop's cadence drives it
// without a dedicated timer goroutine.
func (d *Domain) checkSkewDiag() {
	if d.dataDir == "" {
		return
	}
	now := time.Now().UnixNano()
	last := d.diagLastSkewNs.Load()
	if now-last < int64(diagSkewDebounce) {
		return
	}
	if !d.diagLastSkewNs.CompareAndSwap(last, now) {
		return // another poll won this window
	}
	r := d.SkewReport()
	if r.TotalLoad() >= diagSkewMinLoad && r.Imbalance > diagSkewThreshold {
		d.maybeCaptureDiag("skew")
	}
}

// captureDiag writes one snapshot directory. Runs on its own goroutine;
// diagInflight is held for the duration.
func (d *Domain) captureDiag(reason string) {
	defer d.diagInflight.Store(false)
	root := filepath.Join(d.dataDir, "diag")
	// Prune FIRST, to diagKeep-1, then create: the directory count never
	// exceeds diagKeep, even observed mid-capture or after a crash.
	pruneDiag(root, diagKeep-1)
	dir := filepath.Join(root, fmt.Sprintf("%d-%s", time.Now().UnixNano(), reason))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	// Cheap, state-describing files first; profiles after, CPU last — a
	// capture cut short by process death still leaves the state files.
	writeDiagJSON(filepath.Join(dir, "health.json"), d.Health())
	writeDiagJSON(filepath.Join(dir, "skew.json"), d.SkewReport())
	writeDiagJSON(filepath.Join(dir, "spans.json"), telemetry.Spans())
	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		_ = pprof.WriteHeapProfile(f)
		f.Close()
	}
	if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
		if pprof.StartCPUProfile(f) == nil {
			t := time.NewTimer(time.Duration(diagCPUProfileNs.Load()))
			select {
			case <-t.C:
			case <-d.diagStop: // Close: stop sampling now
			}
			t.Stop()
			pprof.StopCPUProfile()
		}
		f.Close()
	}
}

// writeDiagJSON marshals v into path, best-effort.
func writeDiagJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(path, data, 0o644)
}

// pruneDiag removes the oldest snapshot directories until at most keep
// remain. Names lead with a fixed-width UnixNano timestamp, so
// lexicographic order is age order.
func pruneDiag(root string, keep int) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) <= keep {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-keep] {
		_ = os.RemoveAll(filepath.Join(root, n))
	}
}

// DiagDir returns the domain's diagnostic capture directory ("" without a
// DataDir). Snapshots appear under it as <unixnano>-<reason>/.
func (d *Domain) DiagDir() string {
	if d.dataDir == "" {
		return ""
	}
	return filepath.Join(d.dataDir, "diag")
}
