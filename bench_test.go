// Micro-benchmarks for the mechanisms the repository benchmark (bench/,
// BENCHMARK.json) does not measure: kernel hook overhead (B1, the paper's
// "we have shown the LSM performance overhead to be minimal", Section
// 8.2.1), flow-check scaling with label size (B2), global tag resolution
// (B6) and the sticky-policy comparison (B11, Section 10.2). Everything on
// the message, control and evidence path is measured end to end by bench/.
//
// Run with:
//
//	go test -run NONE -bench 'B1|B2|B6|B11' -benchmem .
package lciot_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/names"
	"lciot/internal/oskernel"
	"lciot/internal/sticky"
)

// --- B1: kernel enforcement overhead (the paper's "minimal LSM overhead") ---

func benchKernel(b *testing.B, hooks bool) {
	k := oskernel.NewKernel("bench", audit.NewLog(nil))
	k.SetHooksEnabled(hooks)
	ctx := ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"consent"})
	p := k.Boot("app", ctx)
	if err := k.Create(p.PID(), "/f"); err != nil {
		b.Fatal(err)
	}
	payload := []byte("reading")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Write(p.PID(), "/f", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB1LSMOverheadHooksOff(b *testing.B) { benchKernel(b, false) }
func BenchmarkB1LSMOverheadHooksOn(b *testing.B)  { benchKernel(b, true) }

// --- B2: flow-check cost vs label size ---

func BenchmarkB2FlowCheck(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("tags=%d", n), func(b *testing.B) {
			tags := make([]ifc.Tag, n)
			for i := range tags {
				tags[i] = ifc.Tag("tag-" + strconv.Itoa(i))
			}
			src := ifc.SecurityContext{Secrecy: ifc.MustLabel(tags...)}
			dst := ifc.SecurityContext{Secrecy: ifc.MustLabel(tags...).With("extra")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := ifc.CheckFlow(src, dst); !d.Allowed {
					b.Fatal("flow should be allowed")
				}
			}
		})
	}
}

// BenchmarkB2FlowCheckDistinctPairs rotates through many distinct context
// pairs so most checks miss the bounded decision cache: the comparison
// against BenchmarkB2FlowCheck isolates what the cache is worth over the
// raw interned-label merge walk.
func BenchmarkB2FlowCheckDistinctPairs(b *testing.B) {
	const pairs = 4096 // well past the cache bound
	srcs := make([]ifc.SecurityContext, pairs)
	dsts := make([]ifc.SecurityContext, pairs)
	for i := range srcs {
		base := ifc.Tag("pair-" + strconv.Itoa(i))
		srcs[i] = ifc.SecurityContext{Secrecy: ifc.MustLabel(base, "medical")}
		dsts[i] = ifc.SecurityContext{Secrecy: ifc.MustLabel(base, "medical", "extra")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := ifc.CheckFlow(srcs[i%pairs], dsts[i%pairs]); !d.Allowed {
			b.Fatal("flow should be allowed")
		}
	}
}

// --- B6: global tag resolution, cold vs cached ---

func benchNamespace(b *testing.B, depth int) (*names.Resolver, ifc.Tag) {
	b.Helper()
	root := names.NewRoot()
	ns := "d0"
	for i := 1; i < depth; i++ {
		ns += "/d" + strconv.Itoa(i)
	}
	zone, err := root.DelegatePath(ns)
	if err != nil {
		b.Fatal(err)
	}
	tag := ifc.Tag(ns + "/medical")
	if err := zone.Register(names.TagRecord{Tag: tag, Owner: "o", TTL: time.Hour}); err != nil {
		b.Fatal(err)
	}
	return names.NewResolver(root), tag
}

func BenchmarkB6NameResolutionCold(b *testing.B) {
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r, tag := benchNamespace(b, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Flush() // force the authoritative walk every time
				if _, err := r.Resolve("p", tag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkB6NameResolutionCached(b *testing.B) {
	r, tag := benchNamespace(b, 8)
	if _, err := r.Resolve("p", tag); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Resolve("p", tag); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B11: sticky-policy baseline vs IFC enforcement ---
//
// The paper (Section 10.2) positions sticky policies as the alternative
// end-to-end control. B11 quantifies the per-datum cost difference: sticky
// pays AES-GCM plus an authority interaction per protected datum; IFC pays
// a label subset check per flow.

func BenchmarkB11StickyProtectOpen(b *testing.B) {
	auth := sticky.NewAuthority()
	data := []byte("ann-vitals-reading-72bpm")
	pol := sticky.Policy{Text: "medical: treatment only"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bundle, err := auth.Seal(data, pol)
		if err != nil {
			b.Fatal(err)
		}
		if err := auth.Agree("clinic", bundle.ID); err != nil {
			b.Fatal(err)
		}
		if _, err := auth.Open("clinic", bundle); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB11IFCProtectFlow(b *testing.B) {
	// The IFC equivalent of "protect and hand over one datum": a kernel
	// pipe write + read across the enforcement hook, audit included.
	k := oskernel.NewKernel("bench", nil)
	ctx := ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil)
	producer := k.Boot("producer", ctx)
	consumer := k.Boot("consumer", ctx)
	pipe, err := k.MkPipe(producer.PID())
	if err != nil {
		b.Fatal(err)
	}
	data := []byte("ann-vitals-reading-72bpm")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.WritePipe(producer.PID(), pipe, data); err != nil {
			b.Fatal(err)
		}
		if _, err := k.ReadPipe(consumer.PID(), pipe); err != nil {
			b.Fatal(err)
		}
	}
}
