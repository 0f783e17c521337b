package opstore

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/precision"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// lowRankMatrix sums a few decaying outer products plus a small random
// perturbation: genuinely low-rank tiles with nonuniform ranks.
func lowRankMatrix(rng *rand.Rand, m, n int) *dense.Matrix {
	a := dense.New(m, n)
	for term := 0; term < 5; term++ {
		amp := math.Pow(0.5, float64(term))
		u := make([]complex64, m)
		v := make([]complex64, n)
		for i := range u {
			u[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		for j := range v {
			v[j] = complex(float32(amp*rng.NormFloat64()), float32(amp*rng.NormFloat64()))
		}
		for j := 0; j < n; j++ {
			col := a.Col(j)
			for i := range col {
				col[i] += u[i] * v[j]
			}
		}
	}
	return a
}

// testStore compresses a two-frequency kernel, pages it into memory
// under the policy, and opens a store with the given budget.
func testStore(t *testing.T, budget int64, pol precision.Policy) (*Store, *tlrio.Kernel) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	k := &tlrio.Kernel{}
	for f := 0; f < 2; f++ {
		tm, err := tlr.Compress(lowRankMatrix(rng, 45, 38), tlr.Options{NB: 12, Tol: 1e-5})
		if err != nil {
			t.Fatal(err)
		}
		k.Freqs = append(k.Freqs, 2.0+float64(f))
		k.Mats = append(k.Mats, tm)
	}
	var buf bytes.Buffer
	if err := tlrio.WritePaged(&buf, k, tlrio.PagedOptions{PageSize: 256, Policy: pol}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenBytes(buf.Bytes(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return st, k
}

func relErr(got, want []complex64) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += float64(real(d))*float64(real(d)) + float64(imag(d))*float64(imag(d))
		den += float64(real(want[i]))*float64(real(want[i])) + float64(imag(want[i]))*float64(imag(want[i]))
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func randVec(rng *rand.Rand, n int) []complex64 {
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return v
}

// TestStoreBackedMatchesInMemory holds every product path of a
// store-backed matrix to its in-memory twin — with a budget small
// enough that part of the operator is never admitted, so tiles genuinely
// stream from the page file. The fp32 store decodes bit-identically, so
// the products (identical kernel, identical operand bits, identical
// order) must agree exactly.
func TestStoreBackedMatchesInMemory(t *testing.T) {
	st, k := testStore(t, 16<<10, nil)
	rng := rand.New(rand.NewSource(5))
	for f, tm := range k.Mats {
		ooc, err := st.Matrix(f)
		if err != nil {
			t.Fatal(err)
		}
		if !ooc.OutOfCore() {
			t.Fatal("store matrix claims to be in-memory")
		}
		if ooc.TotalRank() != tm.TotalRank() || ooc.CompressedBytes() != tm.CompressedBytes() {
			t.Fatalf("f=%d: rank/byte stats diverge (%d/%d vs %d/%d)", f,
				ooc.TotalRank(), ooc.CompressedBytes(), tm.TotalRank(), tm.CompressedBytes())
		}
		x := randVec(rng, tm.N)
		xa := randVec(rng, tm.M)
		want := make([]complex64, tm.M)
		got := make([]complex64, tm.M)
		wantAdj := make([]complex64, tm.N)
		gotAdj := make([]complex64, tm.N)

		tm.MulVec(x, want)
		ooc.MulVec(x, got)
		if e := relErr(got, want); e != 0 {
			t.Errorf("f=%d MulVec: rel err %g, want bit-exact", f, e)
		}
		tm.MulVecConjTrans(xa, wantAdj)
		ooc.MulVecConjTrans(xa, gotAdj)
		if e := relErr(gotAdj, wantAdj); e != 0 {
			t.Errorf("f=%d MulVecConjTrans: rel err %g, want bit-exact", f, e)
		}
	}
	stats := st.Stats()
	if stats.Misses == 0 || stats.Hits == 0 {
		t.Fatalf("differential pass exercised no cache traffic: %+v", stats)
	}
	if stats.Evictions == 0 {
		t.Fatalf("budget %d admitted every read (stats %+v)", stats.Budget, stats)
	}
	if stats.ResidentBytes > stats.Budget {
		t.Fatalf("resident %d over budget %d", stats.ResidentBytes, stats.Budget)
	}
}

// TestMeteringIssuesNoStoreTraffic pins the obs meters off the store's
// miss path: they size every product from the rank map, so N products
// move the hit/miss/eviction counters identically whether collection is
// on or off. (A meter that walked the tiles pulled the whole operator
// through the cache once per product.)
func TestMeteringIssuesNoStoreTraffic(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs must be disabled at test start")
	}
	run := func(collect bool) CacheStats {
		st, k := testStore(t, 6<<10, nil) // half of one frequency's tiles
		if collect {
			obs.Enable()
			defer obs.Disable()
		}
		rng := rand.New(rand.NewSource(6))
		ooc, err := st.Matrix(0)
		if err != nil {
			t.Fatal(err)
		}
		x, xa := randVec(rng, k.Mats[0].N), randVec(rng, k.Mats[0].M)
		y, ya := make([]complex64, k.Mats[0].M), make([]complex64, k.Mats[0].N)
		for i := 0; i < 4; i++ {
			ooc.MulVec(x, y)
			ooc.MulVecConjTrans(xa, ya)
		}
		return st.Stats()
	}
	off, on := run(false), run(true)
	if off.Misses == 0 || off.Evictions == 0 {
		t.Fatalf("budget streamed no tile: %+v", off)
	}
	if on != off {
		t.Fatalf("store traffic depends on obs collection:\n  off %+v\n  on  %+v", off, on)
	}
}

// TestStoreQuantizedTiers checks a reduced-tier store decodes to
// exactly the operator precision.Quantize builds in memory: the two
// MulVec outputs must agree bit for bit, tile streaming and all.
func TestStoreQuantizedTiers(t *testing.T) {
	for _, pol := range []precision.Policy{
		precision.Uniform{F: precision.FP16},
		precision.DiagonalBand{Band: 0.2, Demoted: precision.BF16},
	} {
		st, k := testStore(t, 12<<10, pol)
		rng := rand.New(rand.NewSource(17))
		for f, tm := range k.Mats {
			q, err := precision.Quantize(tm, pol)
			if err != nil {
				t.Fatal(err)
			}
			ooc, err := st.Matrix(f)
			if err != nil {
				t.Fatal(err)
			}
			x := randVec(rng, tm.N)
			want := make([]complex64, tm.M)
			got := make([]complex64, tm.M)
			q.T.MulVec(x, want)
			ooc.MulVec(x, got)
			if e := relErr(got, want); e != 0 {
				t.Errorf("%+v f=%d: store-backed quantized product differs (rel err %g)", pol, f, e)
			}
		}
	}
}

// TestStoreFileRoundTrip exercises the disk path: WriteFile a store,
// OpenFile it, and run one differential product.
func TestStoreFileRoundTrip(t *testing.T) {
	_, k := testStore(t, 1<<20, nil)
	path := filepath.Join(t.TempDir(), "kernel.tlrp")
	if err := WriteFile(path, k, nil); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFile(path, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumMats() != len(k.Mats) || len(st.Freqs()) != len(k.Mats) {
		t.Fatalf("store shape %d/%d, want %d", st.NumMats(), len(st.Freqs()), len(k.Mats))
	}
	rng := rand.New(rand.NewSource(29))
	tm := k.Mats[1]
	ooc, err := st.Matrix(1)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, tm.N)
	want := make([]complex64, tm.M)
	got := make([]complex64, tm.M)
	tm.MulVec(x, want)
	ooc.MulVec(x, got)
	if e := relErr(got, want); e != 0 {
		t.Fatalf("file-backed product differs: rel err %g", e)
	}
}
