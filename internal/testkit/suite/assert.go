// Assertions for package suite, mirroring the part of the testify
// require surface the serving-layer tests need.
package suite

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Assertions is one assertion set bound to a *testing.T, with require
// semantics: a failed assertion stops the test method (FailNow).
type Assertions struct {
	t *testing.T
}

// fail records a failure, formatted testify-style with optional
// user message-and-args appended.
func (a *Assertions) fail(msg string, msgAndArgs ...any) bool {
	a.t.Helper()
	if len(msgAndArgs) > 0 {
		if format, ok := msgAndArgs[0].(string); ok && len(msgAndArgs) > 1 {
			msg += ": " + fmt.Sprintf(format, msgAndArgs[1:]...)
		} else {
			parts := make([]string, len(msgAndArgs))
			for i, m := range msgAndArgs {
				parts[i] = fmt.Sprint(m)
			}
			msg += ": " + strings.Join(parts, " ")
		}
	}
	a.t.Fatal(msg)
	return false
}

// Equal asserts deep equality.
func (a *Assertions) Equal(expected, actual any, msgAndArgs ...any) bool {
	a.t.Helper()
	if objectsEqual(expected, actual) {
		return true
	}
	return a.fail(fmt.Sprintf("not equal:\n expected: %v\n actual:   %v", expected, actual), msgAndArgs...)
}

// NotEqual asserts the two values differ.
func (a *Assertions) NotEqual(expected, actual any, msgAndArgs ...any) bool {
	a.t.Helper()
	if !objectsEqual(expected, actual) {
		return true
	}
	return a.fail(fmt.Sprintf("should not be equal: %v", actual), msgAndArgs...)
}

// True asserts value.
func (a *Assertions) True(value bool, msgAndArgs ...any) bool {
	a.t.Helper()
	if value {
		return true
	}
	return a.fail("should be true", msgAndArgs...)
}

// False asserts !value.
func (a *Assertions) False(value bool, msgAndArgs ...any) bool {
	a.t.Helper()
	if !value {
		return true
	}
	return a.fail("should be false", msgAndArgs...)
}

// NoError asserts err is nil.
func (a *Assertions) NoError(err error, msgAndArgs ...any) bool {
	a.t.Helper()
	if err == nil {
		return true
	}
	return a.fail(fmt.Sprintf("unexpected error: %v", err), msgAndArgs...)
}

// Error asserts err is non-nil.
func (a *Assertions) Error(err error, msgAndArgs ...any) bool {
	a.t.Helper()
	if err != nil {
		return true
	}
	return a.fail("expected an error, got nil", msgAndArgs...)
}

// ErrorAs asserts errors.As(err, target).
func (a *Assertions) ErrorAs(err error, target any, msgAndArgs ...any) bool {
	a.t.Helper()
	if errors.As(err, target) {
		return true
	}
	return a.fail(fmt.Sprintf("error %v is not assignable to %T", err, target), msgAndArgs...)
}

// ErrorContains asserts err's message contains substr.
func (a *Assertions) ErrorContains(err error, substr string, msgAndArgs ...any) bool {
	a.t.Helper()
	if err == nil {
		return a.fail(fmt.Sprintf("expected an error containing %q, got nil", substr), msgAndArgs...)
	}
	if strings.Contains(err.Error(), substr) {
		return true
	}
	return a.fail(fmt.Sprintf("error %q does not contain %q", err.Error(), substr), msgAndArgs...)
}

// Nil asserts the value is nil (typed or untyped).
func (a *Assertions) Nil(value any, msgAndArgs ...any) bool {
	a.t.Helper()
	if isNil(value) {
		return true
	}
	return a.fail(fmt.Sprintf("expected nil, got %v", value), msgAndArgs...)
}

// NotNil asserts the value is non-nil.
func (a *Assertions) NotNil(value any, msgAndArgs ...any) bool {
	a.t.Helper()
	if !isNil(value) {
		return true
	}
	return a.fail("expected a non-nil value", msgAndArgs...)
}

// Len asserts the container has exactly n elements.
func (a *Assertions) Len(object any, n int, msgAndArgs ...any) bool {
	a.t.Helper()
	v := reflect.ValueOf(object)
	switch v.Kind() {
	case reflect.Slice, reflect.Array, reflect.Map, reflect.Chan, reflect.String:
		if v.Len() == n {
			return true
		}
		return a.fail(fmt.Sprintf("expected length %d, got %d", n, v.Len()), msgAndArgs...)
	}
	return a.fail(fmt.Sprintf("%T has no length", object), msgAndArgs...)
}

// Empty asserts the container has no elements.
func (a *Assertions) Empty(object any, msgAndArgs ...any) bool {
	a.t.Helper()
	if isEmpty(object) {
		return true
	}
	return a.fail(fmt.Sprintf("expected empty, got %v", object), msgAndArgs...)
}

// NotEmpty asserts the container has at least one element.
func (a *Assertions) NotEmpty(object any, msgAndArgs ...any) bool {
	a.t.Helper()
	if !isEmpty(object) {
		return true
	}
	return a.fail("expected a non-empty value", msgAndArgs...)
}

// Contains asserts the string/slice/map contains the element.
func (a *Assertions) Contains(container, element any, msgAndArgs ...any) bool {
	a.t.Helper()
	if containsElement(container, element) {
		return true
	}
	return a.fail(fmt.Sprintf("%v does not contain %v", container, element), msgAndArgs...)
}

// Greater asserts a > b for ordered numeric values.
func (a *Assertions) Greater(x, y any, msgAndArgs ...any) bool {
	a.t.Helper()
	if compareNumeric(x, y) > 0 {
		return true
	}
	return a.fail(fmt.Sprintf("expected %v > %v", x, y), msgAndArgs...)
}

// GreaterOrEqual asserts a >= b.
func (a *Assertions) GreaterOrEqual(x, y any, msgAndArgs ...any) bool {
	a.t.Helper()
	if compareNumeric(x, y) >= 0 {
		return true
	}
	return a.fail(fmt.Sprintf("expected %v >= %v", x, y), msgAndArgs...)
}

// Less asserts a < b.
func (a *Assertions) Less(x, y any, msgAndArgs ...any) bool {
	a.t.Helper()
	if compareNumeric(x, y) < 0 {
		return true
	}
	return a.fail(fmt.Sprintf("expected %v < %v", x, y), msgAndArgs...)
}

// LessOrEqual asserts a <= b.
func (a *Assertions) LessOrEqual(x, y any, msgAndArgs ...any) bool {
	a.t.Helper()
	if compareNumeric(x, y) <= 0 {
		return true
	}
	return a.fail(fmt.Sprintf("expected %v <= %v", x, y), msgAndArgs...)
}

// InDelta asserts |expected-actual| <= delta.
func (a *Assertions) InDelta(expected, actual, delta float64, msgAndArgs ...any) bool {
	a.t.Helper()
	if diff := math.Abs(expected - actual); diff <= delta {
		return true
	}
	return a.fail(fmt.Sprintf("|%g - %g| = %g exceeds delta %g",
		expected, actual, math.Abs(expected-actual), delta), msgAndArgs...)
}

// Eventually is not provided: the serving tests use explicit
// notification channels, not polling, so a time-based helper would only
// invite flakes.

func objectsEqual(expected, actual any) bool {
	if expected == nil || actual == nil {
		return expected == actual
	}
	if eb, ok := expected.([]byte); ok {
		ab, ok := actual.([]byte)
		return ok && string(eb) == string(ab)
	}
	return reflect.DeepEqual(expected, actual)
}

func isNil(value any) bool {
	if value == nil {
		return true
	}
	v := reflect.ValueOf(value)
	switch v.Kind() {
	case reflect.Chan, reflect.Func, reflect.Interface,
		reflect.Map, reflect.Ptr, reflect.Slice, reflect.UnsafePointer:
		return v.IsNil()
	}
	return false
}

func isEmpty(object any) bool {
	if object == nil {
		return true
	}
	v := reflect.ValueOf(object)
	switch v.Kind() {
	case reflect.Slice, reflect.Array, reflect.Map, reflect.Chan, reflect.String:
		return v.Len() == 0
	case reflect.Ptr:
		return v.IsNil() || isEmpty(v.Elem().Interface())
	}
	return reflect.DeepEqual(object, reflect.Zero(v.Type()).Interface())
}

func containsElement(container, element any) bool {
	cv := reflect.ValueOf(container)
	switch cv.Kind() {
	case reflect.String:
		es, ok := element.(string)
		return ok && strings.Contains(cv.String(), es)
	case reflect.Slice, reflect.Array:
		for i := 0; i < cv.Len(); i++ {
			if objectsEqual(cv.Index(i).Interface(), element) {
				return true
			}
		}
	case reflect.Map:
		for _, k := range cv.MapKeys() {
			if objectsEqual(k.Interface(), element) {
				return true
			}
		}
	}
	return false
}

// compareNumeric returns -1, 0, or +1 for any pair of integer or float
// values; mismatched kinds compare through float64.
func compareNumeric(x, y any) int {
	xf := toFloat(x)
	yf := toFloat(y)
	switch {
	case xf < yf:
		return -1
	case xf > yf:
		return 1
	}
	return 0
}

func toFloat(v any) float64 {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(rv.Uint())
	case reflect.Float32, reflect.Float64:
		return rv.Float()
	case reflect.Struct:
		// time.Duration is int64 underneath; structs are unsupported.
		return math.NaN()
	}
	return math.NaN()
}
