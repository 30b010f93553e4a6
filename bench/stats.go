package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors the benchmark's monotonic clock: every timestamp the
// benchmark records is nanoseconds since process start, so due times, span
// boundaries and latencies subtract without wall-clock adjustments.
var epoch = time.Now()

// now returns monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// sortedCopy returns the samples as an ascending float64 slice.
func sortedCopy[T uint32 | int64 | float64](samples []T) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0 < p < 1) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median of an unsorted slice (0 when empty).
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.5)
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the acceptance check measures spread.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := sortedCopy(xs)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// gini is the Gini coefficient of per-lane loads: 0 when every lane carries
// the same load, approaching 1 when one lane carries everything.
func gini(loads []uint64) float64 {
	n := len(loads)
	if n < 2 {
		return 0
	}
	s := make([]float64, n)
	var total float64
	for i, l := range loads {
		s[i] = float64(l)
		total += s[i]
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(s)
	var weighted float64
	for i, v := range s {
		weighted += float64(i+1) * v
	}
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}

// splitmix64 is the benchmark's only randomness: message i of a phase is a
// pure function of (seed, phase, i), so generators need no shared state and
// the reference model can recompute any message without replaying a stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
