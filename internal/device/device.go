// Package device simulates the physical end of the IoT (Section 2):
// sensors producing data streams and actuators accepting commands with
// real-world effect (Concern 2). Generators are deterministic (seeded), so
// every benchharness experiment (see DESIGN.md) reproduces exactly.
//
// Substitution note (see DESIGN.md): replaces real sensor hardware. The
// scenarios only need workload *shape* — steady vitals with occasional
// emergency episodes, configurable sampling rates — which the synthetic
// generators provide.
package device

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Errors reported by devices.
var (
	ErrUnknownCommand = errors.New("device: unknown command")
	ErrBadValue       = errors.New("device: command value out of range")
	ErrUnknownDevice  = errors.New("device: unknown device")
)

// A Reading is one sensor sample.
type Reading struct {
	DeviceID string
	Metric   string
	Value    float64
	At       time.Time
	// Seq numbers readings per device for provenance IDs.
	Seq uint64
}

// DataID derives a stable provenance identifier, "device/metric/seq".
func (r Reading) DataID() string {
	// The digits go to a stack buffer; the concatenation is the one
	// allocation (a string(bytes) operand of + is not copied first).
	var digits [20]byte
	return r.DeviceID + "/" + r.Metric + "/" + string(strconv.AppendUint(digits[:0], r.Seq, 10))
}

// A VitalsSensor generates heart-rate readings: a stable baseline with
// noise, plus scripted emergency episodes during which the rate ramps up —
// the workload behind the Fig. 7 emergency-detection scenario.
type VitalsSensor struct {
	id       string
	baseline float64
	noise    float64
	rng      *rand.Rand

	mu sync.Mutex
	// interval is the sampling period, actuatable at runtime ("the home
	// sensors may be actuated to sample more frequently").
	interval time.Duration
	// episodes holds [start, end) sample-sequence windows with elevated rate.
	episodes []episode
	seq      uint64
	clock    time.Time
}

type episode struct {
	from, to uint64
	peak     float64
}

// NewVitalsSensor builds a deterministic vitals sensor.
func NewVitalsSensor(id string, baseline float64, seed int64, start time.Time, interval time.Duration) *VitalsSensor {
	return &VitalsSensor{
		id:       id,
		baseline: baseline,
		noise:    2.0,
		rng:      rand.New(rand.NewSource(seed)),
		interval: interval,
		clock:    start,
	}
}

// ID returns the device identifier.
func (s *VitalsSensor) ID() string { return s.id }

// ScheduleEpisode injects an emergency between two sample sequence numbers,
// ramping the heart rate towards peak.
func (s *VitalsSensor) ScheduleEpisode(fromSeq, toSeq uint64, peak float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.episodes = append(s.episodes, episode{from: fromSeq, to: toSeq, peak: peak})
}

// Interval returns the current sampling period.
func (s *VitalsSensor) Interval() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.interval
}

// Next produces the next reading, advancing the sensor's virtual clock by
// the sampling interval.
func (s *VitalsSensor) Next() Reading {
	s.mu.Lock()
	defer s.mu.Unlock()
	value := s.baseline + s.rng.NormFloat64()*s.noise
	for _, ep := range s.episodes {
		if s.seq >= ep.from && s.seq < ep.to {
			// Sinusoidal ramp into the episode peak.
			progress := float64(s.seq-ep.from+1) / float64(ep.to-ep.from)
			value += (ep.peak - s.baseline) * math.Sin(progress*math.Pi/2)
		}
	}
	r := Reading{
		DeviceID: s.id,
		Metric:   "heart-rate",
		Value:    value,
		At:       s.clock,
		Seq:      s.seq,
	}
	s.seq++
	s.clock = s.clock.Add(s.interval)
	return r
}

// Actuate applies a command (Concern 2: actuation has real-world effect,
// so commands are validated). Supported: "sample-interval" (seconds,
// 0 < v <= 3600).
func (s *VitalsSensor) Actuate(command string, value float64) error {
	switch command {
	case "sample-interval":
		if value <= 0 || value > 3600 {
			return fmt.Errorf("%w: sample-interval %g", ErrBadValue, value)
		}
		s.mu.Lock()
		s.interval = time.Duration(value * float64(time.Second))
		s.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("%w: %q on %q", ErrUnknownCommand, command, s.id)
	}
}

// An EnvironmentSensor produces slowly-drifting environmental values
// (temperature, traffic counts) for the smart-city scenarios.
type EnvironmentSensor struct {
	id     string
	metric string
	level  float64
	drift  float64
	rng    *rand.Rand

	mu    sync.Mutex
	seq   uint64
	clock time.Time
	step  time.Duration
}

// NewEnvironmentSensor builds a deterministic environmental sensor.
func NewEnvironmentSensor(id, metric string, level, drift float64, seed int64, start time.Time, step time.Duration) *EnvironmentSensor {
	return &EnvironmentSensor{
		id: id, metric: metric, level: level, drift: drift,
		rng: rand.New(rand.NewSource(seed)), clock: start, step: step,
	}
}

// ID returns the device identifier.
func (s *EnvironmentSensor) ID() string { return s.id }

// Next produces the next reading (random walk).
func (s *EnvironmentSensor) Next() Reading {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.level += s.rng.NormFloat64() * s.drift
	r := Reading{DeviceID: s.id, Metric: s.metric, Value: s.level, At: s.clock, Seq: s.seq}
	s.seq++
	s.clock = s.clock.Add(s.step)
	return r
}

// An Actuator accepts validated commands and records its state; the Fig. 7
// "emergency actuations" target these.
type Actuator struct {
	id string
	// limits maps command name to [min, max] acceptable values.
	limits map[string][2]float64

	mu    sync.Mutex
	state map[string]float64
	// applied counts accepted commands, for test assertions.
	applied uint64
}

// NewActuator builds an actuator accepting the given commands.
func NewActuator(id string, limits map[string][2]float64) *Actuator {
	cp := make(map[string][2]float64, len(limits))
	for k, v := range limits {
		cp[k] = v
	}
	return &Actuator{id: id, limits: cp, state: make(map[string]float64)}
}

// ID returns the device identifier.
func (a *Actuator) ID() string { return a.id }

// Apply executes a command after range validation.
func (a *Actuator) Apply(command string, value float64) error {
	lim, ok := a.limits[command]
	if !ok {
		return fmt.Errorf("%w: %q on %q", ErrUnknownCommand, command, a.id)
	}
	if value < lim[0] || value > lim[1] {
		return fmt.Errorf("%w: %q=%g outside [%g, %g]", ErrBadValue, command, value, lim[0], lim[1])
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state[command] = value
	a.applied++
	return nil
}

// State returns the last applied value for a command.
func (a *Actuator) State(command string) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.state[command]
	return v, ok
}

// Applied returns the number of accepted commands.
func (a *Actuator) Applied() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// A Registry indexes devices by ID (one per gateway or domain).
type Registry struct {
	mu        sync.RWMutex
	actuators map[string]*Actuator
}

// RegisterActuator adds an actuator.
func (r *Registry) RegisterActuator(a *Actuator) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.actuators == nil {
		r.actuators = make(map[string]*Actuator)
	}
	r.actuators[a.ID()] = a
}

// Actuator looks an actuator up.
func (r *Registry) Actuator(id string) (*Actuator, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.actuators[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	return a, nil
}

// Actuators lists registered actuator IDs, sorted.
func (r *Registry) Actuators() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.actuators))
	for id := range r.actuators {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
