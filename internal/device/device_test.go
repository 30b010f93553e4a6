package device

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

var start = time.Unix(1700000000, 0)

func TestVitalsSensorDeterministic(t *testing.T) {
	a := NewVitalsSensor("ann-sensor", 70, 42, start, time.Second)
	b := NewVitalsSensor("ann-sensor", 70, 42, start, time.Second)
	for i := 0; i < 50; i++ {
		ra, rb := a.Next(), b.Next()
		if ra.Value != rb.Value || ra.At != rb.At || ra.Seq != rb.Seq {
			t.Fatalf("divergence at sample %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestVitalsSensorBaseline(t *testing.T) {
	s := NewVitalsSensor("s", 70, 1, start, time.Second)
	sum := 0.0
	const n = 500
	for i := 0; i < n; i++ {
		r := s.Next()
		sum += r.Value
		if r.Metric != "heart-rate" || r.DeviceID != "s" {
			t.Fatalf("reading = %+v", r)
		}
	}
	avg := sum / n
	if avg < 65 || avg > 75 {
		t.Fatalf("average %g far from baseline 70", avg)
	}
}

func TestVitalsSensorEpisode(t *testing.T) {
	s := NewVitalsSensor("s", 70, 7, start, time.Second)
	s.ScheduleEpisode(10, 20, 160)
	var calm, peak float64
	for i := 0; i < 25; i++ {
		r := s.Next()
		switch {
		case r.Seq < 10:
			calm = maxF(calm, r.Value)
		case r.Seq >= 15 && r.Seq < 20:
			peak = maxF(peak, r.Value)
		}
	}
	if peak < 120 {
		t.Fatalf("episode peak %g too low", peak)
	}
	if calm > 100 {
		t.Fatalf("calm phase %g too high", calm)
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestVitalsSensorTimestampsAdvance(t *testing.T) {
	s := NewVitalsSensor("s", 70, 1, start, 2*time.Second)
	r0 := s.Next()
	r1 := s.Next()
	if r1.At.Sub(r0.At) != 2*time.Second {
		t.Fatalf("interval = %v", r1.At.Sub(r0.At))
	}
}

func TestVitalsSensorActuation(t *testing.T) {
	s := NewVitalsSensor("s", 70, 1, start, 10*time.Second)
	if err := s.Actuate("sample-interval", 1); err != nil {
		t.Fatal(err)
	}
	if s.Interval() != time.Second {
		t.Fatalf("interval = %v", s.Interval())
	}
	if err := s.Actuate("sample-interval", 0); !errors.Is(err, ErrBadValue) {
		t.Fatalf("zero interval = %v", err)
	}
	if err := s.Actuate("sample-interval", 4000); !errors.Is(err, ErrBadValue) {
		t.Fatalf("huge interval = %v", err)
	}
	if err := s.Actuate("self-destruct", 1); !errors.Is(err, ErrUnknownCommand) {
		t.Fatalf("unknown command = %v", err)
	}
}

func TestReadingDataID(t *testing.T) {
	r := Reading{DeviceID: "d", Metric: "heart-rate", Seq: 7}
	if r.DataID() != "d/heart-rate/7" {
		t.Fatalf("DataID = %q", r.DataID())
	}
}

func TestEnvironmentSensor(t *testing.T) {
	s := NewEnvironmentSensor("tmp-1", "temperature", 20, 0.1, 3, start, time.Minute)
	r0 := s.Next()
	if r0.Metric != "temperature" || r0.Seq != 0 {
		t.Fatalf("reading = %+v", r0)
	}
	// The walk stays near the level for small drift.
	last := r0
	for i := 0; i < 100; i++ {
		last = s.Next()
	}
	if last.Value < 10 || last.Value > 30 {
		t.Fatalf("drifted to %g", last.Value)
	}
	if last.Seq != 100 {
		t.Fatalf("seq = %d", last.Seq)
	}
}

func TestActuatorValidation(t *testing.T) {
	a := NewActuator("hvac", map[string][2]float64{"target-temp": {10, 30}})
	if err := a.Apply("target-temp", 22); err != nil {
		t.Fatal(err)
	}
	if v, ok := a.State("target-temp"); !ok || v != 22 {
		t.Fatalf("state = %g, %v", v, ok)
	}
	if err := a.Apply("target-temp", 99); !errors.Is(err, ErrBadValue) {
		t.Fatalf("out of range = %v", err)
	}
	if err := a.Apply("explode", 1); !errors.Is(err, ErrUnknownCommand) {
		t.Fatalf("unknown = %v", err)
	}
	if a.Applied() != 1 {
		t.Fatalf("applied = %d", a.Applied())
	}
	if _, ok := a.State("explode"); ok {
		t.Fatal("rejected command changed state")
	}
}

func TestRegistry(t *testing.T) {
	var r Registry
	r.RegisterActuator(NewActuator("b", nil))
	r.RegisterActuator(NewActuator("a", nil))
	if _, err := r.Actuator("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Actuator("ghost"); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("ghost = %v", err)
	}
	ids := r.Actuators()
	if len(ids) != 2 || ids[0] != "a" {
		t.Fatalf("Actuators = %v", ids)
	}
}

// TestReadingDataIDMatchesFormat pins DataID to the "%s/%s/%d" form it
// replaced, at the edges: empty device or metric, seq 0 and the largest
// seq; and checks that building it costs one allocation.
func TestReadingDataIDMatchesFormat(t *testing.T) {
	cases := []Reading{
		{DeviceID: "ann-sensor", Metric: "heart-rate", Seq: 42},
		{DeviceID: "", Metric: "heart-rate", Seq: 7},
		{DeviceID: "ann-sensor", Metric: "", Seq: 7},
		{},
		{DeviceID: "d", Metric: "m", Seq: 0},
		{DeviceID: "d", Metric: "m", Seq: math.MaxUint64},
		{DeviceID: "a/b", Metric: "c d", Seq: 1 << 32},
	}
	for _, r := range cases {
		if got, want := r.DataID(), fmt.Sprintf("%s/%s/%d", r.DeviceID, r.Metric, r.Seq); got != want {
			t.Errorf("DataID(%+v) = %q, want %q", r, got, want)
		}
	}
	r := Reading{DeviceID: "ann-sensor", Metric: "heart-rate", Seq: math.MaxUint64}
	if n := testing.AllocsPerRun(100, func() { _ = r.DataID() }); n > 1 {
		t.Errorf("DataID allocates %.0f times, want 1", n)
	}
}
