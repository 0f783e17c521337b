// Package fault is the deterministic fault-injection layer behind the
// chaos tests: a Schedule names exactly which invocation of which
// target (a simulated CS-2 shard, the whole operator) fails
// and how — transient error, sticky death, NaN-corrupted output, or
// injected latency. Schedules are keyed on invocation counts, not
// clocks or random draws, so a chaos run is exactly reproducible: the
// same schedule against the same workload fires the same faults at the
// same points every time. Wrappers for lsqr operators and batch shard
// executors live in wrap.go.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Injection metrics: every fired event counts, split by kind so a chaos
// test can assert its schedule actually executed.
var (
	obsInjected  = obs.NewCounter("fault.injected")
	obsInjErrs   = obs.NewCounter("fault.injected.errs")
	obsInjDeaths = obs.NewCounter("fault.injected.deaths")
	obsInjNaNs   = obs.NewCounter("fault.injected.nans")
	obsInjDelays = obs.NewCounter("fault.injected.delays")
)

// Kind is the failure mode of one scheduled event.
type Kind string

// The four failure modes: Err fails one invocation and recovers; Die
// fails every invocation from the trigger on (a dead system); NaN lets
// the invocation succeed but corrupts its output (silent data
// corruption); Latency delays the invocation without failing it (a
// straggler shard).
const (
	Err     Kind = "err"
	Die     Kind = "die"
	NaN     Kind = "nan"
	Latency Kind = "latency"
)

// Event schedules one fault: the At-th invocation (1-based) of Target
// misbehaves per Kind. Delay applies to Latency events only.
type Event struct {
	Target string
	Kind   Kind
	At     int
	Delay  time.Duration
}

// Schedule is a set of scheduled faults.
type Schedule []Event

// Parse reads the comma-separated schedule syntax used by the mddrun
// -faults flag: each event is "target:kind@invocation" with an optional
// ":duration" suffix for latency events, e.g.
// "shard2:die@3,shard5:die@5,op:err@4,shard1:latency@2:5ms".
func Parse(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var sched Schedule
	for _, part := range strings.Split(s, ",") {
		ev, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		sched = append(sched, ev)
	}
	return sched, nil
}

func parseEvent(s string) (Event, error) {
	fields := strings.Split(s, ":")
	if len(fields) < 2 || len(fields) > 3 {
		return Event{}, fmt.Errorf("fault: event %q is not target:kind@invocation[:duration]", s)
	}
	ev := Event{Target: fields[0]}
	if ev.Target == "" {
		return Event{}, fmt.Errorf("fault: event %q has an empty target", s)
	}
	kindAt := strings.Split(fields[1], "@")
	if len(kindAt) != 2 {
		return Event{}, fmt.Errorf("fault: event %q kind field %q is not kind@invocation", s, fields[1])
	}
	switch Kind(kindAt[0]) {
	case Err, Die, NaN, Latency:
		ev.Kind = Kind(kindAt[0])
	default:
		return Event{}, fmt.Errorf("fault: event %q has unknown kind %q (want err, die, nan, or latency)", s, kindAt[0])
	}
	at, err := strconv.Atoi(kindAt[1])
	if err != nil || at < 1 {
		return Event{}, fmt.Errorf("fault: event %q invocation %q is not a positive integer", s, kindAt[1])
	}
	ev.At = at
	if len(fields) == 3 {
		if ev.Kind != Latency {
			return Event{}, fmt.Errorf("fault: event %q: only latency events take a duration", s)
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil || d < 0 {
			return Event{}, fmt.Errorf("fault: event %q has invalid duration %q", s, fields[2])
		}
		ev.Delay = d
	} else if ev.Kind == Latency {
		ev.Delay = time.Millisecond
	}
	return ev, nil
}

// String renders the schedule back into the Parse syntax.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, ev := range s {
		parts[i] = fmt.Sprintf("%s:%s@%d", ev.Target, ev.Kind, ev.At)
		if ev.Kind == Latency && ev.Delay != time.Millisecond {
			parts[i] += ":" + ev.Delay.String()
		}
	}
	return strings.Join(parts, ",")
}

// InjectedError is the error an injector returns for Err and Die
// events, carrying enough context for tests to assert exactly which
// scheduled fault fired.
type InjectedError struct {
	Target     string
	Kind       Kind
	Invocation int
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s on %s at invocation %d", e.Kind, e.Target, e.Invocation)
}

// Decision is the injector's verdict for one invocation. Err, when
// non-nil, fails the invocation. NaN asks the wrapper to corrupt the
// invocation's output after it succeeds.
type Decision struct {
	Err error
	NaN bool
}

// Injector executes a Schedule against live invocation streams. It is
// safe for concurrent use (shard workers call it from many goroutines);
// per-target invocation counts are the only state, so behaviour depends
// solely on each target's invocation order, never on wall time or
// scheduling races across targets.
type Injector struct {
	sched Schedule
	// Sleep replaces time.Sleep for Latency events (tests inject a no-op
	// so latency faults exercise code paths without slowing the suite).
	Sleep func(time.Duration)

	mu     sync.Mutex
	counts map[string]int
}

// NewInjector builds an injector over the schedule.
func NewInjector(sched Schedule) *Injector {
	return &Injector{sched: sched, Sleep: time.Sleep, counts: map[string]int{}}
}

// advance records one invocation of target and returns what, if
// anything, the schedule injects into it. Latency events sleep here,
// before the wrapped work runs.
func (in *Injector) advance(target string) Decision {
	in.mu.Lock()
	in.counts[target]++
	n := in.counts[target]
	var dec Decision
	var delay time.Duration
	for _, ev := range in.sched {
		if ev.Target != target {
			continue
		}
		fired := false
		switch {
		case ev.Kind == Die && n >= ev.At:
			dec.Err = &InjectedError{Target: target, Kind: Die, Invocation: n}
			fired = n == ev.At // count the death once, at its trigger
			if fired {
				obsInjDeaths.Add(1)
			}
		case n != ev.At:
			// one-shot kinds only fire on their exact invocation
		case ev.Kind == Err:
			dec.Err = &InjectedError{Target: target, Kind: Err, Invocation: n}
			obsInjErrs.Add(1)
			fired = true
		case ev.Kind == NaN:
			dec.NaN = true
			obsInjNaNs.Add(1)
			fired = true
		case ev.Kind == Latency:
			delay += ev.Delay
			obsInjDelays.Add(1)
			fired = true
		}
		if fired {
			obsInjected.Add(1)
		}
	}
	sleep := in.Sleep
	in.mu.Unlock()
	if delay > 0 && sleep != nil {
		// Injected latency is schedule-bounded: delay comes from the
		// finite fault schedule and the Sleep hook is the test's own
		// clock, not an unbounded wait.
		sleep(delay)
	}
	return dec
}
