package benchreport

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func mkReport(metrics ...Metric) *Report {
	return &Report{
		Schema: Schema, Label: "test", Profile: "smoke",
		Host: CurrentHost(), Metrics: metrics,
	}
}

func TestCompareDetectsTenPercentRegression(t *testing.T) {
	oldR := mkReport(Metric{Name: "wsesim.model_cycles", Value: 1000, Unit: "cycles", Direction: Lower, Gate: true})
	newR := mkReport(Metric{Name: "wsesim.model_cycles", Value: 1101, Unit: "cycles", Direction: Lower, Gate: true})
	res, err := Compare(oldR, newR, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("10.1% cycle regression passed the gate")
	}
}

func TestCompareTolerance(t *testing.T) {
	cases := []struct {
		name       string
		direction  string
		oldV, newV float64
		wantOK     bool
	}{
		{"lower-within", Lower, 1000, 1050, true},  // +5% ok
		{"lower-at-edge", Lower, 1000, 1100, true}, // exactly +10% ok (strictly >)
		{"lower-over", Lower, 1000, 1150, false},   // +15% regresses
		{"lower-improves", Lower, 1000, 500, true}, // big improvement ok
		{"higher-within", Higher, 10, 9.5, true},   // −5% ok
		{"higher-over", Higher, 10, 8.5, false},    // −15% regresses
		{"higher-improves", Higher, 10, 20, true},  // improvement ok
		{"zero-to-zero", Lower, 0, 0, true},
		{"zero-to-nonzero", Lower, 0, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldR := mkReport(Metric{Name: "m", Value: tc.oldV, Unit: "u", Direction: tc.direction, Gate: true})
			newR := mkReport(Metric{Name: "m", Value: tc.newV, Unit: "u", Direction: tc.direction, Gate: true})
			res, err := Compare(oldR, newR, CompareOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.OK() != tc.wantOK {
				t.Errorf("old=%g new=%g dir=%s: OK=%v, want %v",
					tc.oldV, tc.newV, tc.direction, res.OK(), tc.wantOK)
			}
		})
	}
}

func TestCompareUngatedTimingIsInformational(t *testing.T) {
	oldR := mkReport(Metric{Name: "lsqr.iters", Value: 10, Unit: "iters", Direction: Lower, Gate: false})
	newR := mkReport(Metric{Name: "lsqr.iters", Value: 20, Unit: "iters", Direction: Lower, Gate: false})
	res, err := Compare(oldR, newR, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Error("ungated metric tripped the gate")
	}
}

func TestCompareMissingGatedMetricRegresses(t *testing.T) {
	oldR := mkReport(
		Metric{Name: "kept", Value: 1, Unit: "u", Direction: Lower, Gate: true},
		Metric{Name: "dropped", Value: 1, Unit: "u", Direction: Lower, Gate: true},
	)
	newR := mkReport(Metric{Name: "kept", Value: 1, Unit: "u", Direction: Lower, Gate: true})
	res, err := Compare(oldR, newR, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("dropping a gated metric passed the gate")
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	oldR := mkReport()
	newR := mkReport()
	newR.Schema = "repro-bench/999"
	if _, err := Compare(oldR, newR, CompareOptions{}); err == nil {
		t.Error("schema mismatch not rejected")
	}
}

// TestCompareSyntheticRegressionFixture is the acceptance check: the
// committed fixture pair differs by >10% on gated metrics and must fail
// the gate end to end through the file reader.
func TestCompareSyntheticRegressionFixture(t *testing.T) {
	oldR, err := ReadFile(filepath.Join("testdata", "fixture_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	newR, err := ReadFile(filepath.Join("testdata", "fixture_regressed.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(oldR, newR, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("synthetic 10% regression fixture passed the gate")
	}
	var buf bytes.Buffer
	res.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "wsesim.model_cycles") {
		t.Errorf("formatted output missing verdict or metric:\n%s", out)
	}
	// the fixture's within-threshold metric must not be listed as regressed
	for _, name := range res.Regressions {
		if name == "tlr.compression_ratio" {
			t.Error("within-threshold metric flagged as regression")
		}
	}
}

func TestReportValidate(t *testing.T) {
	r := mkReport(Metric{Name: "a", Value: 1, Unit: "u", Direction: Lower, Gate: true})
	if err := r.Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
	dup := mkReport(
		Metric{Name: "a", Value: 1, Unit: "u", Direction: Lower},
		Metric{Name: "a", Value: 2, Unit: "u", Direction: Lower},
	)
	if dup.Validate() == nil {
		t.Error("duplicate metric accepted")
	}
	bad := mkReport(Metric{Name: "a", Value: 1, Unit: "u", Direction: "sideways"})
	if bad.Validate() == nil {
		t.Error("bad direction accepted")
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	r := mkReport(Metric{Name: "a", Value: 1.5, Unit: "u", Direction: Higher, Gate: true})
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metric("a") == nil || got.Metric("a").Value != 1.5 {
		t.Errorf("round-trip lost metric: %+v", got)
	}
}
