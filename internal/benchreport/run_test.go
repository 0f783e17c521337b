package benchreport

import (
	"encoding/json"
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
	if len(r.Stages) == 0 {
		t.Error("report carries no obs stage snapshot")
	} else {
		var snap obs.Snapshot
		if err := json.Unmarshal(r.Stages, &snap); err != nil {
			t.Errorf("stages not an obs snapshot: %v", err)
		} else if len(snap.Timers) == 0 {
			t.Error("stage snapshot has no timers — instrumentation not firing")
		}
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
	if _, err := Profiles("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}
