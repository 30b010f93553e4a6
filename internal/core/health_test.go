package core

import (
	"syscall"
	"testing"

	"lciot/internal/fault"
)

// TestHealthLadder walks the audit-store subsystem down the ladder:
// ok while persisting, degraded once a WAL failure flips the store to
// in-memory buffering, failed once the buffer bound forces shedding.
func TestHealthLadder(t *testing.T) {
	defer fault.DisarmAll()
	shrinkCPUProfile(t)
	clock := newTestClock()
	d, src := obligationDomain(t, t.TempDir(), clock)

	stateOf := func(name string) (SubsystemHealth, bool) {
		for _, h := range d.Health() {
			if h.Subsystem == name {
				return h, true
			}
		}
		return SubsystemHealth{}, false
	}

	if h, ok := stateOf("audit-store"); !ok || h.State != HealthOK {
		t.Fatalf("fresh domain audit-store health = %+v", h)
	}

	fault.Arm("store.wal.write", fault.Always(fault.Action{Err: fault.Wrap(syscall.ENOSPC)}))
	publishTelemetry(t, src, "pump-9", 5)
	d.Log().Flush()
	_ = d.AuditStore().Sync() // surfaces (and latches) the degraded state
	publishTelemetry(t, src, "pump-9", 5)
	d.Log().Flush()
	if h, _ := stateOf("audit-store"); h.State != HealthDegraded {
		t.Fatalf("after WAL failure audit-store health = %+v, want degraded", h)
	}

	// The other subsystems stay on their own rungs.
	if h, _ := stateOf("links"); h.State != HealthOK {
		t.Fatalf("links health = %+v, want ok", h)
	}
	if h, _ := stateOf("bus"); h.State != HealthOK {
		t.Fatalf("bus health = %+v, want ok", h)
	}
	// The degradation started an asynchronous diagnostic capture into the
	// data directory; Close waits it out before t.TempDir's cleanup runs.
	_ = d.Close()
}
