// Package obs is the repo-wide observability layer: named counters,
// per-stage timers, flop/byte meters, and gauges that the hot paths of the
// TLR-MVM stack (internal/tlr, internal/batch, internal/mdc, the solvers,
// and the CS-2 machine models) publish into a single registry. The chaos
// and failover tests assert counter deltas of the registry, and mddserve
// serves a snapshot of it at GET /api/v1/metrics.
//
// Collection is globally disabled by default and every recording call is
// guarded by one atomic load, so instrumented hot paths pay (far) less
// than 2% when observation is off — a budget enforced by a test in
// internal/tlr. Metric construction (NewCounter etc.) takes a lock and is
// meant for package-level var initialization, never for inner loops.
//
// Naming convention: dot-separated lowercase paths, "<package>.<stage>"
// (e.g. "tlr.mvm_step", "lsqr.iter", "wsesim.model_cycles").
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// noCopy makes `go vet -copylocks` flag by-value copies of the metric
// types: handles are shared registry pointers whose atomics must not be
// duplicated, or recordings fork into diverging copies.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Enable turns collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns collection off process-wide (the default).
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on. Hot paths may use it to skip
// computing expensive metric arguments when observation is off.
func Enabled() bool { return enabled.Load() }

// Counter is a named monotonic tally, safe for concurrent use.
type Counter struct {
	noCopy noCopy
	name   string
	v      atomic.Int64
}

// Add increments the counter by n when collection is enabled.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Timer accumulates the duration and invocation count of one stage, plus
// the worst single span (useful for per-iteration solver timing).
type Timer struct {
	noCopy noCopy
	name   string
	count  atomic.Int64
	ns     atomic.Int64
	maxNs  atomic.Int64
}

// Span is one in-flight timing started by Timer.Start. The zero Span
// (returned while collection is disabled) makes End a no-op.
type Span struct {
	t  *Timer
	t0 time.Time
}

// Start opens a span. When collection is disabled it returns the zero
// Span and performs no clock read.
func (t *Timer) Start() Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{t: t, t0: time.Now()}
}

// End closes the span and folds its duration into the timer. It returns
// the span duration (0 when collection was disabled at Start).
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.t.count.Add(1)
	s.t.ns.Add(int64(d))
	for {
		cur := s.t.maxNs.Load()
		if int64(d) <= cur || s.t.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	return d
}

// Count returns the number of completed spans.
func (t *Timer) Count() int64 { return t.count.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Max returns the worst single span.
func (t *Timer) Max() time.Duration { return time.Duration(t.maxNs.Load()) }

// Name returns the registered name.
func (t *Timer) Name() string { return t.name }

// Meter tallies work volume — flops and bytes — for one stage. Paired
// with the stage's Timer it yields GFlop/s and GB/s in snapshots.
type Meter struct {
	noCopy noCopy
	name   string
	flops  atomic.Int64
	bytes  atomic.Int64
}

// Add records flops floating-point operations and bytes of memory traffic
// when collection is enabled.
func (m *Meter) Add(flops, bytes int64) {
	if enabled.Load() {
		m.flops.Add(flops)
		m.bytes.Add(bytes)
	}
}

// Flops returns the accumulated floating-point operation count.
func (m *Meter) Flops() int64 { return m.flops.Load() }

// Bytes returns the accumulated memory traffic.
func (m *Meter) Bytes() int64 { return m.bytes.Load() }

// Name returns the registered name.
func (m *Meter) Name() string { return m.name }

// Gauge holds the last written value of a modelled quantity (cycle
// counts, SRAM footprints, PE counts) — the CS-2 model outputs that used
// to live only in ad-hoc result structs.
type Gauge struct {
	noCopy noCopy
	name   string
	v      atomic.Int64
	set    atomic.Bool
}

// Set records the value when collection is enabled.
func (g *Gauge) Set(v int64) {
	if enabled.Load() {
		g.v.Store(v)
		g.set.Store(true)
	}
}

// Value returns the last written value and whether one was ever written.
func (g *Gauge) Value() (int64, bool) { return g.v.Load(), g.set.Load() }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// registry is the process-wide metric store. Construction is locked;
// recording touches only the per-metric atomics.
type registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	meters   map[string]*Meter
	gauges   map[string]*Gauge
}

var reg = &registry{
	counters: map[string]*Counter{},
	timers:   map[string]*Timer{},
	meters:   map[string]*Meter{},
	gauges:   map[string]*Gauge{},
}

// NewCounter returns the counter registered under name, creating it on
// first use. Idempotent: the same name always maps to the same counter.
func NewCounter(name string) *Counter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if c, ok := reg.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	reg.counters[name] = c
	return c
}

// NewTimer returns the timer registered under name, creating it on first
// use.
func NewTimer(name string) *Timer {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if t, ok := reg.timers[name]; ok {
		return t
	}
	t := &Timer{name: name}
	reg.timers[name] = t
	return t
}

// NewMeter returns the meter registered under name, creating it on first
// use.
func NewMeter(name string) *Meter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if m, ok := reg.meters[name]; ok {
		return m
	}
	m := &Meter{name: name}
	reg.meters[name] = m
	return m
}

// NewGauge returns the gauge registered under name, creating it on first
// use.
func NewGauge(name string) *Gauge {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if g, ok := reg.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	reg.gauges[name] = g
	return g
}

// Reset zeroes every registered metric (gauges become unset). Metrics
// stay registered; pointers held by instrumented packages remain valid.
func Reset() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, c := range reg.counters {
		c.v.Store(0)
	}
	for _, t := range reg.timers {
		t.count.Store(0)
		t.ns.Store(0)
		t.maxNs.Store(0)
	}
	for _, m := range reg.meters {
		m.flops.Store(0)
		m.bytes.Store(0)
	}
	for _, g := range reg.gauges {
		g.v.Store(0)
		g.set.Store(false)
	}
}

// CounterStat is one counter's snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// TimerStat is one timer's snapshot.
type TimerStat struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	MaxNs   int64   `json:"max_ns"`
	AvgNs   float64 `json:"avg_ns"`
}

// MeterStat is one meter's snapshot. When the same name is registered as
// a timer, GFlops and GBps are rates over that timer's total.
type MeterStat struct {
	Name   string  `json:"name"`
	Flops  int64   `json:"flops"`
	Bytes  int64   `json:"bytes"`
	GFlops float64 `json:"gflop_per_s,omitempty"`
	GBps   float64 `json:"gb_per_s,omitempty"`
}

// GaugeStat is one gauge's snapshot; unset gauges are omitted.
type GaugeStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time, name-sorted copy of the registry.
type Snapshot struct {
	Counters []CounterStat `json:"counters,omitempty"`
	Timers   []TimerStat   `json:"timers,omitempty"`
	Meters   []MeterStat   `json:"meters,omitempty"`
	Gauges   []GaugeStat   `json:"gauges,omitempty"`
}

// Counter returns the snapshotted value of the named counter, or 0 if
// it never recorded anything (snapshots skip idle metrics).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the snapshotted value of the named gauge and whether it
// was set.
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// TakeSnapshot copies the current state of every registered metric.
// Metrics that never recorded anything are skipped so snapshots only
// carry the stages a run actually exercised.
func TakeSnapshot() Snapshot {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var s Snapshot
	for _, c := range reg.counters {
		if v := c.Value(); v != 0 {
			s.Counters = append(s.Counters, CounterStat{Name: c.name, Value: v})
		}
	}
	for _, t := range reg.timers {
		n := t.Count()
		if n == 0 {
			continue
		}
		tot := t.ns.Load()
		s.Timers = append(s.Timers, TimerStat{
			Name: t.name, Count: n, TotalNs: tot, MaxNs: t.maxNs.Load(),
			AvgNs: float64(tot) / float64(n),
		})
	}
	for _, m := range reg.meters {
		f, b := m.Flops(), m.Bytes()
		if f == 0 && b == 0 {
			continue
		}
		st := MeterStat{Name: m.name, Flops: f, Bytes: b}
		if t, ok := reg.timers[m.name]; ok {
			if sec := t.Total().Seconds(); sec > 0 {
				st.GFlops = float64(f) / sec / 1e9
				st.GBps = float64(b) / sec / 1e9
			}
		}
		s.Meters = append(s.Meters, st)
	}
	for _, g := range reg.gauges {
		if v, ok := g.Value(); ok {
			s.Gauges = append(s.Gauges, GaugeStat{Name: g.name, Value: v})
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Timers, func(i, j int) bool { return s.Timers[i].Name < s.Timers[j].Name })
	sort.Slice(s.Meters, func(i, j int) bool { return s.Meters[i].Name < s.Meters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}
