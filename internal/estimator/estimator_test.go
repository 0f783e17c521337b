package estimator

import (
	"testing"

	"repro/internal/precision"
)

func predict(t *testing.T, cfg Config) Prediction {
	t.Helper()
	p, err := Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPredictMonotone is the golden seeded-grid property: across the
// configuration grid, the predicted NMSE bound must be monotone
// nondecreasing in compression tolerance, monotone nondecreasing in
// storage roundoff (fp32 ≤ fp16 ≤ bf16), and monotone nonincreasing in
// the fp32 diagonal band width (a wider band promotes tiles, never
// demotes). These orderings are what make the estimator usable for
// configuration selection — a non-monotone model would recommend
// nonsense.
func TestPredictMonotone(t *testing.T) {
	shapes := []Config{
		{M: 96, N: 80, NB: 16},
		{M: 200, N: 200, NB: 25},
		{M: 63, N: 90, NB: 14},
	}
	accs := []float64{1e-7, 1e-5, 1e-4, 1e-3, 1e-2}
	formats := []precision.Format{precision.FP32, precision.FP16, precision.BF16}
	bands := []float64{0, 0.1, 0.3, 0.6, 1.0}

	for _, base := range shapes {
		// Monotone in tolerance, at each uniform format.
		for _, f := range formats {
			prev := -1.0
			for _, acc := range accs {
				cfg := base
				cfg.Acc = acc
				cfg.Policy = precision.Uniform{F: f}
				p := predict(t, cfg)
				if p.NMSEBound < prev {
					t.Fatalf("%+v fmt=%d: NMSE bound %g decreased below %g as tolerance grew to %g",
						base, f, p.NMSEBound, prev, acc)
				}
				prev = p.NMSEBound
			}
		}
		// Monotone in storage precision, at each tolerance.
		for _, acc := range accs {
			prev := -1.0
			for _, f := range formats {
				cfg := base
				cfg.Acc = acc
				cfg.Policy = precision.Uniform{F: f}
				p := predict(t, cfg)
				if p.NMSEBound < prev {
					t.Fatalf("%+v acc=%g: NMSE bound %g decreased below %g at coarser format %d",
						base, acc, p.NMSEBound, prev, f)
				}
				prev = p.NMSEBound
			}
		}
		// Nonincreasing in band width (banded bf16 demotion).
		prevBound := -1.0
		for i := len(bands) - 1; i >= 0; i-- {
			cfg := base
			cfg.Acc = 1e-4
			cfg.Policy = precision.DiagonalBand{Band: bands[i], Demoted: precision.BF16}
			p := predict(t, cfg)
			if p.NMSEBound < prevBound {
				t.Fatalf("%+v: NMSE bound %g fell below %g as band narrowed to %g",
					base, p.NMSEBound, prevBound, bands[i])
			}
			prevBound = p.NMSEBound
		}
	}
}

// TestPredictStages pins per-stage structure: a full-width band demotes
// nothing (quantization term vanishes, matching uniform fp32), and the
// solve bound amplifies but never undercuts the forward bound.
func TestPredictStages(t *testing.T) {
	base := Config{M: 96, N: 80, NB: 16, Acc: 1e-4, Iters: 50}

	cfg := base
	cfg.Policy = precision.Uniform{F: precision.FP32}
	fp32 := predict(t, cfg)
	if fp32.QuantErr != 0 || fp32.DemotedFrac != 0 {
		t.Fatalf("uniform fp32 has quantization noise: %+v", fp32)
	}

	cfg.Policy = precision.DiagonalBand{Band: 1.0, Demoted: precision.BF16}
	wide := predict(t, cfg)
	if wide.NMSEBound != fp32.NMSEBound {
		t.Fatalf("full-width band (%g) differs from uniform fp32 (%g)", wide.NMSEBound, fp32.NMSEBound)
	}

	cfg.Policy = precision.Uniform{F: precision.BF16}
	bf16 := predict(t, cfg)
	if bf16.QuantErr <= 0 || bf16.DemotedFrac != 1 {
		t.Fatalf("uniform bf16 stages: %+v", bf16)
	}
	if bf16.SolveRelErrBound < bf16.RelErrBound {
		t.Fatalf("solve bound %g below forward bound %g", bf16.SolveRelErrBound, bf16.RelErrBound)
	}
	if bf16.SolveRelErrBound > 1 {
		t.Fatalf("solve bound %g not clamped to 1", bf16.SolveRelErrBound)
	}
}

// TestPredictValidation pins the rejection paths.
func TestPredictValidation(t *testing.T) {
	bad := []Config{
		{M: 0, N: 10, NB: 5, Acc: 1e-4},
		{M: 10, N: 10, NB: 0, Acc: 1e-4},
		{M: 10, N: 10, NB: 5, Acc: -1},
	}
	for i, cfg := range bad {
		if _, err := Predict(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

// TestUnitRoundoff pins the roundoff ladder against the format epsilons
// the differential suite tolerances are built from.
func TestUnitRoundoff(t *testing.T) {
	f16 := unitRoundoff(precision.FP16)
	bf := unitRoundoff(precision.BF16)
	f32 := unitRoundoff(precision.FP32)
	if !(f32 < f16 && f16 < bf) {
		t.Fatalf("roundoff ladder broken: fp32=%g fp16=%g bf16=%g", f32, f16, bf)
	}
	if f16 != 1.0/(1<<11) || bf != 1.0/(1<<8) || f32 != 1.0/(1<<24) {
		t.Fatalf("roundoff values drifted: fp16=%g bf16=%g fp32=%g", f16, bf, f32)
	}
}
