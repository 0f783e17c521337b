// Package suite is a self-contained, testify-compatible test-suite
// runner: embed Suite in a struct, hang Test* methods (and the usual
// SetupSuite/SetupTest/TearDownTest/TearDownSuite hooks) off it, and
// drive it with Run. The API mirrors github.com/stretchr/testify/suite
// so suites written here port verbatim once that dependency is
// available; the repo vendors nothing, so the runner itself lives
// in-tree (standing rule: stub missing deps, never install them).
package suite

import (
	"reflect"
	"strings"
	"testing"
)

// TestingSuite is the contract Run drives: anything that can hold the
// per-test *testing.T. Embedding Suite satisfies it.
type TestingSuite interface {
	T() *testing.T
	SetT(*testing.T)
}

// The optional lifecycle hooks, checked by interface exactly like
// testify does.
type (
	// SetupAllSuite runs once before the first test method.
	SetupAllSuite interface{ SetupSuite() }
	// SetupTestSuite runs before every test method.
	SetupTestSuite interface{ SetupTest() }
	// TearDownAllSuite runs once after the last test method.
	TearDownAllSuite interface{ TearDownSuite() }
	// TearDownTestSuite runs after every test method, even on failure.
	TearDownTestSuite interface{ TearDownTest() }
)

// Suite is the embeddable base: it carries the current *testing.T and
// exposes the assertion set.
type Suite struct {
	t *testing.T

	require *Assertions
}

// T returns the *testing.T of the currently running test method.
func (s *Suite) T() *testing.T { return s.t }

// SetT installs the *testing.T for the next test method and rebinds the
// assertion set to it.
func (s *Suite) SetT(t *testing.T) {
	s.t = t
	s.require = &Assertions{t: t}
}

// Require returns assertions that stop the test method on failure
// (FailNow semantics).
func (s *Suite) Require() *Assertions { return s.require }

// Run runs every exported Test* method of the suite as a subtest of t,
// wiring the lifecycle hooks around them.
func Run(t *testing.T, s TestingSuite) {
	t.Helper()
	s.SetT(t)
	if setup, ok := s.(SetupAllSuite); ok {
		setup.SetupSuite()
	}
	defer func() {
		if tear, ok := s.(TearDownAllSuite); ok {
			tear.TearDownSuite()
		}
	}()

	v := reflect.ValueOf(s)
	typ := v.Type()
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if !strings.HasPrefix(m.Name, "Test") {
			continue
		}
		if m.Type.NumIn() != 1 || m.Type.NumOut() != 0 {
			continue // receiver only, no args, no returns
		}
		method := v.Method(i)
		t.Run(m.Name, func(t *testing.T) {
			parent := s.T()
			s.SetT(t)
			defer s.SetT(parent)
			if setup, ok := s.(SetupTestSuite); ok {
				setup.SetupTest()
			}
			defer func() {
				if tear, ok := s.(TearDownTestSuite); ok {
					tear.TearDownTest()
				}
			}()
			method.Call(nil)
		})
	}
}
