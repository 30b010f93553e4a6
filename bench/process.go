package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procSnap is a point-in-time reading of the process's own costs.
type procSnap struct {
	cpuNs      int64 // user + system CPU time
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	gcCycles   uint32
}

// snapProcess reads CPU time and allocator totals. ReadMemStats stops the
// world, so phases call this only at their edges, never while timing.
func snapProcess() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpuNs:      cpuNs(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		gcCycles:   ms.NumGC,
	}
}

// cpuNs reads only the CPU clock (no stop-the-world).
func cpuNs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB returns the process's peak resident set from /proc (VmHWM),
// falling back to getrusage's maxrss where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// fsTypeOf names the filesystem holding dir (from /proc/mounts, longest
// matching mount point), or "unknown".
func fsTypeOf(dir string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			best, bestLen = fields[2], len(mp)
		}
	}
	return best
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
