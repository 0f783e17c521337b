package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// withEnabled runs f with collection on, restoring the prior state.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	was := Enabled()
	Enable()
	defer func() {
		if !was {
			Disable()
		}
	}()
	f()
}

func TestDisabledRecordsNothing(t *testing.T) {
	Disable()
	Reset()
	c := NewCounter("test.disabled.counter")
	m := NewMeter("test.disabled.meter")
	g := NewGauge("test.disabled.gauge")
	tm := NewTimer("test.disabled.timer")
	c.Add(7)
	m.Add(100, 200)
	g.Set(42)
	sp := tm.Start()
	time.Sleep(time.Millisecond)
	if d := sp.End(); d != 0 {
		t.Errorf("disabled span returned nonzero duration %v", d)
	}
	if c.v.Load() != 0 || m.flops.Load() != 0 || m.bytes.Load() != 0 || tm.count.Load() != 0 {
		t.Errorf("disabled metrics recorded: counter=%d flops=%d bytes=%d spans=%d",
			c.v.Load(), m.flops.Load(), m.bytes.Load(), tm.count.Load())
	}
	if _, ok := g.Value(); ok {
		t.Error("disabled gauge got set")
	}
}

func TestEnabledRecording(t *testing.T) {
	withEnabled(t, func() {
		Reset()
		c := NewCounter("test.enabled.counter")
		c.Add(3)
		c.Add(4)
		if c.v.Load() != 7 {
			t.Errorf("counter = %d, want 7", c.v.Load())
		}
		m := NewMeter("test.enabled.meter")
		m.Add(10, 20)
		if m.flops.Load() != 10 || m.bytes.Load() != 20 {
			t.Errorf("meter = (%d, %d), want (10, 20)", m.flops.Load(), m.bytes.Load())
		}
		g := NewGauge("test.enabled.gauge")
		g.Set(-5)
		if v, ok := g.Value(); !ok || v != -5 {
			t.Errorf("gauge = (%d, %v), want (-5, true)", v, ok)
		}
		tm := NewTimer("test.enabled.timer")
		sp := tm.Start()
		time.Sleep(time.Millisecond)
		if d := sp.End(); d <= 0 {
			t.Errorf("span duration %v, want > 0", d)
		}
		if tm.count.Load() != 1 || tm.ns.Load() <= 0 || tm.maxNs.Load() <= 0 {
			t.Errorf("timer count=%d total=%v max=%v", tm.count.Load(), tm.ns.Load(), tm.maxNs.Load())
		}
	})
}

func TestRegistryIdempotent(t *testing.T) {
	if NewCounter("test.same") != NewCounter("test.same") {
		t.Error("NewCounter not idempotent")
	}
	if NewTimer("test.same") != NewTimer("test.same") {
		t.Error("NewTimer not idempotent")
	}
	if NewMeter("test.same") != NewMeter("test.same") {
		t.Error("NewMeter not idempotent")
	}
	if NewGauge("test.same") != NewGauge("test.same") {
		t.Error("NewGauge not idempotent")
	}
}

func TestResetPreservesRegistration(t *testing.T) {
	withEnabled(t, func() {
		c := NewCounter("test.reset.counter")
		c.Add(5)
		Reset()
		if c.v.Load() != 0 {
			t.Errorf("counter after Reset = %d", c.v.Load())
		}
		c.Add(2) // old pointer still live and registered
		if c.v.Load() != 2 || NewCounter("test.reset.counter") != c {
			t.Error("registration lost across Reset")
		}
	})
}

func TestSnapshotSortedAndFiltered(t *testing.T) {
	withEnabled(t, func() {
		Reset()
		NewCounter("test.snap.zzz").Add(1)
		NewCounter("test.snap.aaa").Add(2)
		NewCounter("test.snap.untouched") // never recorded: must be absent
		s := TakeSnapshot()
		var names []string
		for _, cs := range s.Counters {
			names = append(names, cs.Name)
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Errorf("snapshot counters not sorted: %v", names)
			}
		}
		for _, n := range names {
			if n == "test.snap.untouched" {
				t.Error("zero-valued counter present in snapshot")
			}
		}
	})
}

func TestSnapshotMeterRates(t *testing.T) {
	withEnabled(t, func() {
		Reset()
		// meter and timer under one name → snapshot carries rates
		tm := NewTimer("test.rate.stage")
		m := NewMeter("test.rate.stage")
		sp := tm.Start()
		time.Sleep(2 * time.Millisecond)
		sp.End()
		m.Add(1e6, 2e6)
		s := TakeSnapshot()
		found := false
		for _, ms := range s.Meters {
			if ms.Name == "test.rate.stage" {
				found = true
				if ms.GFlops <= 0 || ms.GBps <= 0 {
					t.Errorf("rates not computed: %+v", ms)
				}
				if ms.GBps < 1.9*ms.GFlops || ms.GBps > 2.1*ms.GFlops {
					t.Errorf("GBps/GFlops = %f, want ≈2", ms.GBps/ms.GFlops)
				}
			}
		}
		if !found {
			t.Fatal("meter missing from snapshot")
		}
	})
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	withEnabled(t, func() {
		Reset()
		NewCounter("test.json.c").Add(9)
		NewGauge("test.json.g").Set(11)
		b, err := json.Marshal(TakeSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		if len(s.Counters) == 0 || len(s.Gauges) == 0 {
			t.Errorf("round-trip lost metrics: %s", b)
		}
	})
}

func TestConcurrentUse(t *testing.T) {
	withEnabled(t, func() {
		Reset()
		c := NewCounter("test.conc.counter")
		tm := NewTimer("test.conc.timer")
		var wg sync.WaitGroup
		const workers, per = 8, 1000
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Add(1)
					tm.Start().End()
				}
			}()
		}
		wg.Wait()
		if c.v.Load() != workers*per {
			t.Errorf("counter = %d, want %d", c.v.Load(), workers*per)
		}
		if tm.count.Load() != workers*per {
			t.Errorf("timer count = %d, want %d", tm.count.Load(), workers*per)
		}
	})
}

// BenchmarkDisabledCounter and BenchmarkDisabledSpan document the cost of
// an instrumentation call while collection is off — the budget the
// internal/tlr overhead test divides against.
func BenchmarkDisabledCounter(b *testing.B) {
	Disable()
	c := NewCounter("bench.disabled.counter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	Disable()
	tm := NewTimer("bench.disabled.timer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Start().End()
	}
}
