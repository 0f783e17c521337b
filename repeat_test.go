package repro

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ranks"
	"repro/internal/roofline"
	"repro/internal/sfc"
	"repro/internal/tlr"
	"repro/internal/wse"
	"repro/internal/wsesim"
)

// bitDiff returns the path of the first field at which a and b differ,
// comparing floats by math.Float64bits, or "" when every bit agrees.
func bitDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	case reflect.Complex64, reflect.Complex128:
		ca, cb := a.Complex(), b.Complex()
		if math.Float64bits(real(ca)) != math.Float64bits(real(cb)) ||
			math.Float64bits(imag(ca)) != math.Float64bits(imag(cb)) {
			return path
		}
	case reflect.Pointer:
		return bitDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path + ".len"
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Int, reflect.Int64, reflect.Int32:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
	default:
		panic("bitDiff: unhandled kind " + a.Kind().String() + " at " + path)
	}
	return ""
}

// wantSameBits fails the test at the first bit that differs between two
// evaluations of the same model output.
func wantSameBits(t *testing.T, what string, a, b any) {
	t.Helper()
	if d := bitDiff(what, reflect.ValueOf(a), reflect.ValueOf(b)); d != "" {
		t.Errorf("%s differs between two evaluations of the same input", d)
	}
}

// rooflinePoints is everything Figs. 15 and 16 plot: each platform's
// ceilings and ridge, and the operating points of the six- and
// 48-system deployments the figures place against them.
func rooflinePoints(t *testing.T, pm *wse.PaperModel) ([]float64, []roofline.Point) {
	t.Helper()
	var ceilings []float64
	for _, m := range append(roofline.Fig15Machines(), roofline.Fig16Machines()...) {
		ceilings = append(ceilings, m.PeakBW(), m.PeakFlops(), m.RidgeAI())
	}
	points := roofline.ConstantRankEstimates()
	for _, pp := range []ranks.PaperPlan{
		{Config: ranks.Config{NB: 50, Acc: 3e-4}, StackWidth: 18, Systems: 6, Strategy: 1},
		{Config: ranks.Config{NB: 70, Acc: 1e-4}, StackWidth: 23, Systems: 48, Strategy: 2},
	} {
		m, err := pm.Evaluate(pp)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, roofline.NewPoint("relative", m.FlopRate, m.RelativeBW),
			roofline.NewPoint("absolute", m.FlopRate, m.AbsoluteBW))
	}
	return ceilings, points
}

// TestModelRepeatsBitForBit holds the machine models to being pure
// functions of their inputs. REPORT.md and the paper tables print a few
// digits, so an order-dependent sum, a clock read or an unseeded draw in
// a model can move the low bits of an output without moving the report.
// Every published row of Tables 1–5 is evaluated eight times through
// one wse.PaperModel, one wafer simulation is built and run twice, and
// the Figs. 15/16 roofline points are computed twice; every field must
// agree bit for bit.
func TestModelRepeatsBitForBit(t *testing.T) {
	var pm wse.PaperModel
	for _, table := range []struct {
		name string
		rows []ranks.PaperRow
	}{
		{"PaperSixShard", ranks.PaperSixShard},
		{"PaperStrongScaling", ranks.PaperStrongScaling},
		{"PaperFortyEight", ranks.PaperFortyEight},
	} {
		for i, row := range table.rows {
			var first *wse.Metrics
			for rep := 0; rep < 8; rep++ {
				m, err := pm.Evaluate(row.PaperPlan)
				if err != nil {
					t.Fatalf("%s[%d]: %v", table.name, i, err)
				}
				if first == nil {
					first = m
					continue
				}
				wantSameBits(t, fmt.Sprintf("%s[%d] evaluation %d: Metrics", table.name, i, rep), first, m)
			}
		}
	}

	ceil1, pts1 := rooflinePoints(t, &pm)
	ceil2, pts2 := rooflinePoints(t, &pm)
	wantSameBits(t, "roofline ceilings", ceil1, ceil2)
	wantSameBits(t, "roofline points", pts1, pts2)

	hds, _ := integrationDataset(t).Reorder(sfc.Hilbert)
	k := hds.K[hds.NumFreqs()/2]
	tm, err := tlr.Compress(k, tlr.Options{NB: 8, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex64, k.Cols)
	rng := randSrc()
	for i := range x {
		x[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	type simulation struct {
		Y              []complex64
		Meter          wsesim.Meter
		PEs, WorstSRAM int
		ModelCycles    int64
		Strategy2      wsesim.Strategy2Stats
	}
	simulate := func() simulation {
		mach, err := wsesim.Build(tm, 6)
		if err != nil {
			t.Fatal(err)
		}
		s := simulation{Y: make([]complex64, k.Rows)}
		mach.MulVec(x, s.Y)
		s.Meter, s.PEs, s.WorstSRAM = mach.TotalMeter(), mach.NumPEs(), mach.WorstSRAM()
		s.ModelCycles, s.Strategy2 = mach.ModelCycles(), mach.Strategy2()
		return s
	}
	wantSameBits(t, "wafer simulation", simulate(), simulate())
}
