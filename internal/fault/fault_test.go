package fault

import (
	"errors"
	"testing"
	"time"
)

func TestParseSchedule(t *testing.T) {
	sched, err := Parse(" shard2:die@3, op:err@4 ,kernel:nan@1,shard1:latency@2:5ms ")
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{
		{Target: "shard2", Kind: Die, At: 3},
		{Target: "op", Kind: Err, At: 4},
		{Target: "kernel", Kind: NaN, At: 1},
		{Target: "shard1", Kind: Latency, At: 2, Delay: 5 * time.Millisecond},
	}
	if len(sched) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(sched), len(want))
	}
	for i, ev := range sched {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestParseEmpty(t *testing.T) {
	sched, err := Parse("  ")
	if err != nil || sched != nil {
		t.Fatalf("empty schedule: got %v, %v", sched, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"noseparator",
		":die@3",
		"shard1:boom@3",
		"shard1:die@0",
		"shard1:die@x",
		"shard1:die",
		"shard1:err@2:5ms", // duration on a non-latency kind
		"shard1:latency@2:notaduration",
		"shard1:die@3:5ms:extra",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	const s = "shard2:die@3,op:err@4,shard1:latency@2:5ms"
	sched, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.String(); got != s {
		t.Errorf("String() = %q, want %q", got, s)
	}
}

func TestInjectorOneShotAndSticky(t *testing.T) {
	sched, err := Parse("a:err@2,b:die@2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched)
	in.Sleep = func(time.Duration) {}

	// a: fails exactly on invocation 2, recovers after
	for i, wantErr := range []bool{false, true, false, false} {
		dec := in.advance("a")
		if (dec.Err != nil) != wantErr {
			t.Errorf("a invocation %d: err = %v, want failing=%v", i+1, dec.Err, wantErr)
		}
	}
	// b: fails on invocation 2 and every one after (dead system)
	for i, wantErr := range []bool{false, true, true, true} {
		dec := in.advance("b")
		if (dec.Err != nil) != wantErr {
			t.Errorf("b invocation %d: err = %v, want failing=%v", i+1, dec.Err, wantErr)
		}
	}
	// untouched targets never fail
	if dec := in.advance("c"); dec.Err != nil || dec.NaN {
		t.Errorf("unscheduled target fired: %+v", dec)
	}
	if n := in.counts["a"]; n != 4 {
		t.Errorf("a invocations = %d, want 4", n)
	}
}

func TestInjectorErrorDetails(t *testing.T) {
	in := NewInjector(Schedule{{Target: "s", Kind: Die, At: 1}})
	dec := in.advance("s")
	var inj *InjectedError
	if !errors.As(dec.Err, &inj) {
		t.Fatalf("error %T is not *InjectedError", dec.Err)
	}
	if inj.Target != "s" || inj.Kind != Die || inj.Invocation != 1 {
		t.Errorf("injected error = %+v", inj)
	}
	if inj.Error() == "" {
		t.Error("empty error string")
	}
}

func TestInjectorNaNAndLatency(t *testing.T) {
	var slept time.Duration
	in := NewInjector(Schedule{
		{Target: "s", Kind: NaN, At: 1},
		{Target: "s", Kind: Latency, At: 2, Delay: 7 * time.Millisecond},
	})
	in.Sleep = func(d time.Duration) { slept += d }
	if dec := in.advance("s"); !dec.NaN || dec.Err != nil {
		t.Errorf("invocation 1: %+v, want NaN", dec)
	}
	if dec := in.advance("s"); dec.NaN || dec.Err != nil {
		t.Errorf("invocation 2: %+v, want clean latency", dec)
	}
	if slept != 7*time.Millisecond {
		t.Errorf("slept %v, want 7ms", slept)
	}
}

// TestInjectorDeterminism replays the same schedule twice and requires
// identical decisions — the property every chaos test rests on.
func TestInjectorDeterminism(t *testing.T) {
	sched, err := Parse("s:err@2,s:nan@4,s:die@6")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Decision {
		in := NewInjector(sched)
		in.Sleep = func(time.Duration) {}
		out := make([]Decision, 8)
		for i := range out {
			out[i] = in.advance("s")
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) || a[i].NaN != b[i].NaN {
			t.Errorf("invocation %d differs between replays: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}
