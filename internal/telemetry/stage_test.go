package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestStageClockConcurrentMarksTelescope marks one clock from several
// goroutines at once, as fan-out deliveries on different shards and the
// audit drain do. Marks that lose the race must not move the clock
// backwards: the edge observations still sum exactly to LastNs-ArmNs, and
// every mark is counted.
func TestStageClockConcurrentMarksTelescope(t *testing.T) {
	if !Enabled() {
		Enable()
		t.Cleanup(Disable)
	}
	const (
		trials     = 20
		goroutines = 8
		marks      = 5000
	)
	for trial := 0; trial < trials; trial++ {
		c := ResumeStageClock(time.Now().UnixNano())
		h := &Histogram{}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < marks; i++ {
					c.mark(h)
				}
			}()
		}
		wg.Wait()
		if got := h.count.Load(); got != goroutines*marks {
			t.Fatalf("trial %d: %d observations, want %d", trial, got, goroutines*marks)
		}
		if sum, want := h.sum.Load(), uint64(c.LastNs()-c.ArmNs()); sum != want {
			t.Fatalf("trial %d: edge sum %dns, want exactly last-arm %dns", trial, sum, want)
		}
	}
}
