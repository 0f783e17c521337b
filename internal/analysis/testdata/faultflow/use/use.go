// Package use exercises the faultflow must-reach rule over the guarded
// fallible surface: internal/fault, SolveFallible, InvertResilient, and
// the CheckedKernel methods.
package use

import "fixture/internal/fault"

// Solver stands in for the LSQR/CGLS fallible entry points.
type Solver struct{}

// SolveFallible matches the guarded name surface.
func (Solver) SolveFallible(n int) (int, error) { return n, nil }

// InvertResilient matches the guarded name surface: the serving layer's
// fault-tolerant solve entry point.
func InvertResilient(n int) (int, error) { return n, nil }

// Kernel stands in for the CheckedKernel surface.
type Kernel struct{}

// ApplyChecked matches the guarded name surface.
func (Kernel) ApplyChecked(f int) error { return nil }

type state struct{ err error }

func handle(err error) {}
func cond() bool       { return false }
func log(v ...any)     {}

// Bad: the call's only result is dropped on the floor.
func dropped() {
	fault.Inject() // want `error from Inject is dropped`
}

// Bad: explicit blank discard without annotation.
func blanked() {
	_ = fault.Inject() // want `error from Inject is discarded as _`
}

// Bad: assigned but clobbered before any read — no path observes the
// injected fault.
func neverRead() {
	err := fault.Inject() // want `error from Inject assigned to err does not reach a check on every path`
	err = nil
	log(err)
}

// Bad: checked on the then-path only; the fallthrough path drops it.
// An AST "is it assigned" pattern would pass this; the CFG must-reach
// does not.
func oneArmOnly(s Solver) int {
	v, err := s.SolveFallible(3) // want `error from SolveFallible assigned to err does not reach a check on every path`
	if cond() {
		handle(err)
		return v
	}
	return v
}

// Bad: overwritten before any read — the first error is lost even
// though the variable is eventually checked.
func overwritten(k Kernel) error {
	err := k.ApplyChecked(0) // want `error from ApplyChecked assigned to err does not reach a check on every path`
	err = k.ApplyChecked(1)
	return err
}

// Bad: an unchecked fallible solve turns an aborted inversion into a
// silent empty result — the serving-layer case the guard was extended
// for.
func uncheckedSolve() int {
	out, err := InvertResilient(4) // want `error from InvertResilient assigned to err does not reach a check on every path`
	if cond() {
		handle(err)
	}
	return out
}

// Good: the solve's error is propagated like any other.
func checkedSolve() (int, error) {
	out, err := InvertResilient(4)
	if err != nil {
		return 0, err
	}
	return out, nil
}

// Bad: a goroutine cannot deliver the error anywhere.
func spawned() {
	go fault.Inject() // want `error from Inject is unobservable in a go statement`
}

// Bad: a deferred call's result vanishes.
func deferred() {
	defer fault.Inject() // want `error from deferred Inject call is dropped`
}

// Good: annotated deliberate drop.
func annotated() {
	fault.Inject() //lint:err-ok best-effort probe; the schedule retries it
}

// Good: returned directly.
func propagated() error {
	return fault.Inject()
}

// Good: checked on every path, including through a loop back edge.
func checkedEverywhere(k Kernel) error {
	for i := 0; i < 4; i++ {
		if err := k.ApplyChecked(i); err != nil {
			return err
		}
	}
	err := fault.Inject()
	switch {
	case err != nil:
		return err
	default:
		return nil
	}
}

// Good: handed to a handler call.
func handled() {
	handle(fault.Inject())
}

// Good: stored into a structure another path observes.
func stored(s *state) {
	s.err = fault.Inject()
}

// Good: captured by a deferred closure that checks it at exit.
func deferChecked() {
	var err error
	defer func() { log(err) }()
	err = fault.Inject()
}

// Good: tuple result where the value and the error both flow out.
func tuple() (int, error) {
	n, err := fault.Parse("abc")
	return n, err
}
