package benchreport

import (
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// requiredMetrics are the acceptance-criteria coverage set: one gated
// row from each layer the report walks — TLR compression and SoA layout,
// the MDC kernel, the LSQR solve, and the wsesim cycle counts.
var requiredMetrics = []string{
	"tlr.compression_ratio",
	"tlr.mvm.soa.bytes",
	"mdc.kernel.compression_ratio",
	"mdd.inversion_nmse",
	"lsqr.final_residual",
	"wsesim.model_cycles",
	"wsesim.executed_bytes_op",
}

func TestRunSmokeProfile(t *testing.T) {
	p, err := Profiles("smoke")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run("test", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("generated report invalid: %v", err)
	}
	for _, name := range requiredMetrics {
		m := r.Metric(name)
		if m == nil {
			t.Errorf("metric %q missing from report", name)
			continue
		}
		if m.Value < 0 {
			t.Errorf("metric %q negative: %g", name, m.Value)
		}
	}
	// a counter-derived row proves the obs registry fired during Run: the
	// half-budget store cannot serve four passes without a miss
	if m := r.Metric("opstore.misses"); m == nil || m.Value <= 0 {
		t.Errorf("opstore.misses = %+v, want > 0 — instrumentation not firing", m)
	}
	// a report must survive the file round trip and self-compare clean
	path := filepath.Join(t.TempDir(), "out.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(back, back, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("self-compare regressed: %v", res.Regressions)
	}
}

func TestRunRestoresObsState(t *testing.T) {
	obs.Disable()
	p, err := Profiles("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run("test", p); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Error("Run left obs enabled")
	}
}

func TestUnknownProfile(t *testing.T) {
	for _, name := range []string{"nope", "full"} { // full was retired with its nightly lane
		if _, err := Profiles(name); err == nil {
			t.Errorf("profile %q accepted", name)
		}
	}
}
