// Out-of-core and estimator validation tier: the paged operator store
// exercised through a real temp-dir file (write, reopen, stream the
// tiles a small budget does not admit) and held differentially to the
// in-memory kernels, plus the analytic precision-noise estimator held to
// "bound ≥ measured" on every oracle-style case. CI runs the store tests
// as the integration job's out-of-core step (-run TestOutOfCore).
package repro

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/estimator"
	"repro/internal/opstore"
	"repro/internal/precision"
	"repro/internal/testkit"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// outOfCoreKernel compresses a two-frequency seismic band into a
// tlrio.Kernel, the shared fixture for the store tests below.
func outOfCoreKernel(t *testing.T) *tlrio.Kernel {
	t.Helper()
	mats, err := testkit.SeismicBand(2)
	if err != nil {
		t.Fatal(err)
	}
	k := &tlrio.Kernel{}
	for f, a := range mats {
		tm, err := tlr.Compress(a, tlr.Options{NB: 8, Tol: 1e-5})
		if err != nil {
			t.Fatal(err)
		}
		k.Freqs = append(k.Freqs, float64(f))
		k.Mats = append(k.Mats, tm)
	}
	return k
}

// TestOutOfCoreStoreMatchesInMemory is the store-backed differential
// pass: the seismic kernel written to a temp-dir page file, reopened,
// and driven through every product path — MulVec, MulVecConjTrans,
// MulVecStep and MulVecNormal — with a budget small enough that half
// the tiles are streamed. Each path must agree with its fully in-memory
// twin within the 1e-6 acceptance threshold; the fp32 store decodes
// bit-identically, so the step and the normal pass are compared with ==.
func TestOutOfCoreStoreMatchesInMemory(t *testing.T) {
	k := outOfCoreKernel(t)
	path := filepath.Join(t.TempDir(), "band.tlrp")
	if err := opstore.WriteFile(path, k, nil); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, tm := range k.Mats {
		total += tm.CompressedBytes()
	}
	st, err := opstore.OpenFile(path, total/2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rng := testkit.NewRNG(300)
	for f, tm := range k.Mats {
		ooc, err := st.Matrix(f)
		if err != nil {
			t.Fatal(err)
		}
		if !ooc.OutOfCore() {
			t.Fatalf("freq %d: store matrix claims to be in-memory", f)
		}
		x := testkit.Vec(rng, tm.N)
		xa := testkit.Vec(rng, tm.M)
		want := make([]complex64, tm.M)
		got := make([]complex64, tm.M)
		wantAdj := make([]complex64, tm.N)
		gotAdj := make([]complex64, tm.N)

		tm.MulVec(x, want)
		ooc.MulVec(x, got)
		if e := testkit.RelErr(got, want); e > 1e-6 {
			t.Errorf("freq %d MulVec: store-backed rel err %g > 1e-6", f, e)
		}
		tm.MulVecConjTrans(xa, wantAdj)
		ooc.MulVecConjTrans(xa, gotAdj)
		if e := testkit.RelErr(gotAdj, wantAdj); e > 1e-6 {
			t.Errorf("freq %d MulVecConjTrans: store-backed rel err %g > 1e-6", f, e)
		}
		sameStep(t, fmt.Sprintf("freq %d", f), tm, ooc, x, xa)
	}
	stats := st.Stats()
	// Evictions counts the reads that were not admitted
	if stats.Hits == 0 || stats.Misses == 0 || stats.Evictions == 0 {
		t.Fatalf("differential pass did not stream tiles (stats %+v)", stats)
	}
	if stats.ResidentBytes > stats.Budget {
		t.Fatalf("resident %d exceeds budget %d", stats.ResidentBytes, stats.Budget)
	}
}

// sameStep holds ooc's MulVecStep and MulVecNormal to mem's with ==
// (x on the model grid, u on the data grid).
func sameStep(t *testing.T, name string, mem, ooc *tlr.Matrix, x, u []complex64) {
	t.Helper()
	wantW, wantZ := make([]complex64, mem.M), make([]complex64, mem.N)
	gotW, gotZ := make([]complex64, mem.M), make([]complex64, mem.N)
	mem.MulVecStep(x, 0.37, 0.61, u, wantW, wantZ)
	ooc.MulVecStep(x, 0.37, 0.61, u, gotW, gotZ)
	if d := max(testkit.MaxULPDist(gotW, wantW), testkit.MaxULPDist(gotZ, wantZ)); d != 0 {
		t.Errorf("%s MulVecStep: store-backed product drifts %d ULPs", name, d)
	}
	mem.MulVecNormal(x, wantZ)
	ooc.MulVecNormal(x, gotZ)
	if d := testkit.MaxULPDist(gotZ, wantZ); d != 0 {
		t.Errorf("%s MulVecNormal: store-backed product drifts %d ULPs", name, d)
	}
}

// TestOutOfCoreQuantizedStore holds a reduced-tier temp-dir store to
// precision.Quantize's in-memory operator: the decoded tiles are defined
// to be bit-identical, so the products — MulVec, MulVecStep and
// MulVecNormal — must match exactly even while streaming the tiles a
// small budget does not admit.
func TestOutOfCoreQuantizedStore(t *testing.T) {
	k := outOfCoreKernel(t)
	for _, pol := range []precision.Policy{
		precision.Uniform{F: precision.FP16},
		precision.DiagonalBand{Band: 0.25, Demoted: precision.BF16},
	} {
		path := filepath.Join(t.TempDir(), "band.tlrp")
		if err := opstore.WriteFile(path, k, pol); err != nil {
			t.Fatal(err)
		}
		st, err := opstore.OpenFile(path, 24<<10)
		if err != nil {
			t.Fatal(err)
		}
		rng := testkit.NewRNG(310)
		for f, tm := range k.Mats {
			q, err := precision.Quantize(tm, pol)
			if err != nil {
				t.Fatal(err)
			}
			ooc, err := st.Matrix(f)
			if err != nil {
				t.Fatal(err)
			}
			x := testkit.Vec(rng, tm.N)
			want := make([]complex64, tm.M)
			got := make([]complex64, tm.M)
			q.T.MulVec(x, want)
			ooc.MulVec(x, got)
			if d := testkit.MaxULPDist(got, want); d != 0 {
				t.Errorf("%+v freq %d: store-backed quantized product drifts %d ULPs", pol, f, d)
			}
			sameStep(t, fmt.Sprintf("%+v freq %d", pol, f), q.T, ooc, x, testkit.Vec(rng, tm.M))
		}
		st.Close()
	}
}

// TestEstimatorSoundness is the differential contract of the analytic
// noise model: on every oracle-style case — seismic frequency slices
// swept over compression tolerance and storage-tier policy — the
// predicted NMSE bound must dominate the measured NMSE of the quantized
// compressed product against the dense reference, while staying within
// 10× of the tolerance the differential suite already enforces (sound
// but not uselessly loose).
//
// The measured error is normwise, ‖Ãx − Ax‖ / (‖A‖₂‖x‖), the quantity
// the bound is stated for (estimator.Prediction.RelErrBound): a tile
// truncation bounds ‖Ã − A‖ against ‖A‖, not against ‖Ax‖, which
// cancels for some x. Every case runs over random vectors from seeds 1
// to 200.
func TestEstimatorSoundness(t *testing.T) {
	mats, err := testkit.SeismicBand(2)
	if err != nil {
		t.Fatal(err)
	}
	tols := []float64{1e-5, 1e-4, 1e-3}
	policies := []precision.Policy{
		nil, // uniform fp32
		precision.Uniform{F: precision.FP16},
		precision.Uniform{F: precision.BF16},
		precision.DiagonalBand{Band: 0.3, Demoted: precision.FP16},
		precision.DiagonalBand{Band: 0.25, Demoted: precision.BF16},
	}
	type soundnessCase struct {
		fi    int
		tol   float64
		pol   precision.Policy
		a     *dense.Matrix
		norm  float64 // ‖A‖₂
		op    *tlr.Matrix
		bound float64 // predicted NMSE
	}
	var cases []soundnessCase
	for fi, a := range mats {
		norm := spectralNorm(a)
		for _, tol := range tols {
			tm, err := tlr.Compress(a, tlr.Options{NB: 8, Tol: tol})
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range policies {
				op := tm
				if pol != nil {
					q, err := precision.Quantize(tm, pol)
					if err != nil {
						t.Fatal(err)
					}
					op = q.T
				}
				pred, err := estimator.Predict(estimator.Config{
					M: a.Rows, N: a.Cols, NB: 8, Acc: tol, Policy: pol,
				})
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, soundnessCase{fi, tol, pol, a, norm, op, pred.NMSEBound})
				// Tightness: the bound must not drift above 10× the
				// suite's own tolerance for the same configuration.
				fmtWorst := worstFormat(pol)
				if limit := 10 * testkit.MVMTolerance(a.Cols, tol, fmtWorst); pred.RelErrBound > limit {
					t.Errorf("freq %d tol %g policy %+v: bound %g looser than 10x suite tolerance %g",
						fi, tol, pol, pred.RelErrBound, limit)
				}
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := testkit.NewRNG(seed)
		for _, c := range cases {
			// Measured NMSE: worst normwise error of the stored
			// operator's product against the dense reference over a
			// few random vectors, squared.
			var worst float64
			want := make([]complex64, c.a.Rows)
			got := make([]complex64, c.a.Rows)
			d := make([]complex64, c.a.Rows)
			for trial := 0; trial < 3; trial++ {
				x := testkit.Vec(rng, c.a.Cols)
				c.a.MulVec(x, want)
				c.op.MulVec(x, got)
				for i := range d {
					d[i] = got[i] - want[i]
				}
				if e := cfloat.Nrm2(d) / (c.norm * cfloat.Nrm2(x)); e > worst {
					worst = e
				}
			}
			if measured := worst * worst; measured > c.bound {
				t.Errorf("seed %d freq %d tol %g policy %+v: measured NMSE %g exceeds predicted bound %g",
					seed, c.fi, c.tol, c.pol, measured, c.bound)
			}
		}
	}
}

// spectralNorm estimates ‖A‖₂ by power iteration on AᴴA. Each iterate
// is ‖A v‖ for a unit v, so the estimate approaches ‖A‖₂ from below and
// a normwise error divided by it errs on the large side.
func spectralNorm(a *dense.Matrix) float64 {
	v := testkit.Vec(testkit.NewRNG(1), a.Cols)
	av := make([]complex64, a.Rows)
	var sigma float64
	for it := 0; it < 100; it++ {
		cfloat.Scal(complex(float32(1/cfloat.Nrm2(v)), 0), v)
		a.MulVec(v, av)
		sigma = cfloat.Nrm2(av)
		a.MulVecConjTrans(av, v)
	}
	return sigma
}

// worstFormat returns the coarsest storage format a policy can assign,
// for anchoring the estimator bound to the suite tolerance.
func worstFormat(pol precision.Policy) precision.Format {
	switch p := pol.(type) {
	case precision.Uniform:
		return p.F
	case precision.DiagonalBand:
		return p.Demoted
	default:
		return precision.FP32
	}
}
