package opstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/mdc"
	"repro/internal/precision"
	"repro/internal/testkit/suite"
	"repro/internal/tlr"
	"repro/internal/tlrio"
)

// literalKernel builds nf m×n frequency matrices at tile size nb by
// literal, with seeded factors of rank(i, j) clamped to the tile: ragged
// edges, zero-rank tiles and rank-nb tiles, which a compressed survey
// rarely produces all of.
func literalKernel(rng *rand.Rand, nf, m, n, nb int, rank func(i, j int) int) *tlrio.Kernel {
	k := &tlrio.Kernel{}
	mt, nt := (m+nb-1)/nb, (n+nb-1)/nb
	for f := 0; f < nf; f++ {
		tm := &tlr.Matrix{M: m, N: n, NB: nb, MT: mt, NT: nt, Tiles: make([]*tlr.Tile, mt*nt)}
		for i := 0; i < mt; i++ {
			rows := min((i+1)*nb, m) - i*nb
			for j := 0; j < nt; j++ {
				cols := min((j+1)*nb, n) - j*nb
				r := min(rank(i, j), rows, cols)
				u, v := dense.New(rows, r), dense.New(cols, r)
				copy(u.Data, randVec(rng, len(u.Data)))
				copy(v.Data, randVec(rng, len(v.Data)))
				tm.Tiles[i*nt+j] = &tlr.Tile{U: u, V: v}
			}
		}
		k.Freqs = append(k.Freqs, float64(f+1))
		k.Mats = append(k.Mats, tm)
	}
	return k
}

// mixedRanks puts a zero-rank tile row and column and rank-nb tiles on
// the diagonal of the ragged layouts below.
func mixedRanks(nb int) func(i, j int) int {
	return func(i, j int) int {
		switch {
		case i == 2 || j == 3:
			return 0
		case i == j:
			return nb
		}
		return 1 + (i+2*j)%5
	}
}

// pagedImage pages k under the policy into an in-memory store image.
func pagedImage(t testing.TB, k *tlrio.Kernel, pol precision.Policy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tlrio.WritePaged(&buf, k, pol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func kernelBytes(k *tlrio.Kernel) int64 {
	var b int64
	for _, tm := range k.Mats {
		b += tm.CompressedBytes()
	}
	return b
}

// sameBits reports whether a and b hold the same float32 bits.
func sameBits(a, b []complex64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(real(a[i])) != math.Float32bits(real(b[i])) ||
			math.Float32bits(imag(a[i])) != math.Float32bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestStreamedProductsBitIdentical holds store-backed products to the
// in-memory ones bit for bit at budgets that admit no tile with factors,
// half the operator and all of it, under each storage tier — forward,
// adjoint, the LSQR step and the normal product, each matrix directly
// (twice, so the second product runs on the resident set the first one
// admitted) and all but the normal product through a FreqOperator on
// GOMAXPROCS workers, always into dirty outputs. The
// reference for a reduced tier is precision.Quantize's operator, which
// the page decode reproduces exactly.
func TestStreamedProductsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const nb = 8
	k := literalKernel(rng, 2, 53, 47, nb, mixedRanks(nb))
	total := kernelBytes(k)
	for _, pol := range []precision.Policy{
		nil,
		precision.Uniform{F: precision.FP16},
		precision.Uniform{F: precision.BF16},
	} {
		refs := k.Mats
		if pol != nil {
			refs = make([]*tlr.Matrix, len(k.Mats))
			for f, tm := range k.Mats {
				q, err := precision.Quantize(tm, pol)
				if err != nil {
					t.Fatal(err)
				}
				refs[f] = q.T
			}
		}
		img := pagedImage(t, k, pol)
		for _, b := range []struct {
			name   string
			budget int64
		}{{"nothing", 1}, {"half", total / 2}, {"everything", total}} {
			name := fmt.Sprintf("%v/%s", pol, b.name)
			st, err := OpenBytes(img, b.budget)
			if err != nil {
				t.Fatal(err)
			}
			oocs := make([]*tlr.Matrix, len(refs))
			u := randVec(rng, refs[0].M)
			for f, ref := range refs {
				if oocs[f], err = st.Matrix(f); err != nil {
					t.Fatal(err)
				}
				for _, dir := range []struct {
					name string
					mul  func(tm *tlr.Matrix, x, y []complex64)
					in   int
					out  int
				}{
					{"MulVec", (*tlr.Matrix).MulVec, ref.N, ref.M},
					{"MulVecConjTrans", (*tlr.Matrix).MulVecConjTrans, ref.M, ref.N},
					// w then z in one output
					{"MulVecStep", func(tm *tlr.Matrix, x, y []complex64) {
						tm.MulVecStep(x, 0.37, 0.61, u, y[:tm.M], y[tm.M:])
					}, ref.N, ref.M + ref.N},
					{"MulVecNormal", (*tlr.Matrix).MulVecNormal, ref.N, ref.N},
				} {
					x := randVec(rng, dir.in)
					want := make([]complex64, dir.out)
					dir.mul(ref, x, want)
					for pass := 0; pass < 2; pass++ {
						got := randVec(rng, dir.out)
						dir.mul(oocs[f], x, got)
						if !sameBits(got, want) {
							t.Errorf("%s f=%d %s pass %d: store-backed product differs from in memory", name, f, dir.name, pass)
						}
					}
				}
			}
			mem := &mdc.FreqOperator{K: &mdc.TLRKernel{Mats: refs}}
			ooc := &mdc.FreqOperator{K: &mdc.TLRKernel{Mats: oocs}}
			x, xa, uu := randVec(rng, mem.Cols()), randVec(rng, mem.Rows()), randVec(rng, mem.Rows())
			want, wantAdj := make([]complex64, mem.Rows()), make([]complex64, mem.Cols())
			wantW, wantZ := make([]complex64, mem.Rows()), make([]complex64, mem.Cols())
			mem.Apply(x, want)
			mem.ApplyAdjoint(xa, wantAdj)
			mem.ApplyStep(x, 0.61, uu, wantW, wantZ)
			got, gotAdj := randVec(rng, mem.Rows()), randVec(rng, mem.Cols())
			gotW, gotZ := randVec(rng, mem.Rows()), randVec(rng, mem.Cols())
			ooc.Apply(x, got)
			ooc.ApplyAdjoint(xa, gotAdj)
			ooc.ApplyStep(x, 0.61, uu, gotW, gotZ)
			if !sameBits(got, want) || !sameBits(gotAdj, wantAdj) {
				t.Errorf("%s: store-backed FreqOperator differs from in memory", name)
			}
			if !sameBits(gotW, wantW) || !sameBits(gotZ, wantZ) {
				t.Errorf("%s: store-backed FreqOperator.ApplyStep differs from in memory", name)
			}

			stats := st.Stats()
			if stats.ResidentBytes > stats.Budget {
				t.Errorf("%s: resident %d over budget %d", name, stats.ResidentBytes, stats.Budget)
			}
			switch b.name {
			case "nothing":
				if stats.ResidentBytes != 0 || stats.Evictions == 0 {
					t.Errorf("%s: %+v, want no bytes resident and reads streamed", name, stats)
				}
			case "half":
				if stats.Hits == 0 || stats.Evictions == 0 {
					t.Errorf("%s: %+v, want both hits and streamed reads", name, stats)
				}
			case "everything":
				if stats.ResidentBytes != total || stats.Evictions != 0 {
					t.Errorf("%s: %+v, want all %d bytes resident and nothing streamed", name, stats, total)
				}
			}
		}
	}
}

// panicValue runs f and returns what it panicked with, nil if it did
// not.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// checksumPanic reports whether v, a recovered panic, is the typed load
// failure: an error wrapping tlrio.ErrChecksum under tlr's message.
func checksumPanic(v any) bool {
	err, ok := v.(error)
	return ok && errors.Is(err, tlrio.ErrChecksum) &&
		strings.HasPrefix(err.Error(), "tlr: out-of-core tile load failed: ")
}

// TestStreamedReadKeepsChecks flips one payload byte of a tile that is
// never admitted: a streamed read must fail its CRC-32C like any other —
// every sequential product panics with an error that errors.Is
// ErrChecksum, the same value reaches the caller of a two-worker
// FreqOperator (fanout.Do re-panics it there), and a direct Cache.Tile
// returns the typed error. The intact matrix still serves.
func TestStreamedReadKeepsChecks(t *testing.T) {
	suite.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(43))
	const nb = 8
	k := literalKernel(rng, 2, 53, 47, nb, mixedRanks(nb))
	img := pagedImage(t, k, nil)
	pf, err := tlrio.OpenPaged(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	pm := pf.Mats[1]
	idx := len(pm.Tiles) - 1
	for pm.Tiles[idx].Rank == 0 {
		idx--
	}
	img[pm.Tiles[idx].PageOff+8+5] ^= 0x10
	st, err := OpenBytes(img, 1) // admits no tile with factors
	if err != nil {
		t.Fatal(err)
	}
	mats := make([]*tlr.Matrix, 2)
	for f := range mats {
		if mats[f], err = st.Matrix(f); err != nil {
			t.Fatal(err)
		}
	}
	x, u := randVec(rng, pm.N), randVec(rng, pm.M)
	y, z := make([]complex64, pm.M), make([]complex64, pm.N)
	op := &mdc.FreqOperator{K: &mdc.TLRKernel{Mats: mats}, Workers: 2}
	xx, yy, zz := randVec(rng, op.Cols()), make([]complex64, op.Rows()), make([]complex64, op.Cols())
	for name, product := range map[string]func(){
		"MulVec":                    func() { mats[1].MulVec(x, y) },
		"MulVecConjTrans":           func() { mats[1].MulVecConjTrans(y, x) },
		"MulVecStep":                func() { mats[1].MulVecStep(x, 1, 0.5, u, y, z) },
		"MulVecNormal":              func() { mats[1].MulVecNormal(x, z) },
		"FreqOperator.Apply":        func() { op.Apply(xx, yy) },
		"FreqOperator.ApplyStep":    func() { op.ApplyStep(xx, 0, nil, yy, zz) },
		"FreqOperator.ApplyAdjoint": func() { op.ApplyAdjoint(yy, zz) },
	} {
		if v := panicValue(product); !checksumPanic(v) {
			t.Errorf("%s panicked with %#v, want an error wrapping ErrChecksum", name, v)
		}
	}
	g := st.matBase[1] + idx
	if _, err := st.Cache().Tile(g); !errors.Is(err, tlrio.ErrChecksum) {
		t.Errorf("Cache.Tile on the corrupt tile: %v, want ErrChecksum", err)
	}
	if st.Cache().Resident(g) {
		t.Error("the corrupt tile became resident")
	}
	got, ref := make([]complex64, pm.M), make([]complex64, pm.M)
	mats[0].MulVec(x, got)
	k.Mats[0].MulVec(x, ref)
	if !sameBits(got, ref) {
		t.Error("the intact matrix differs from in memory after the failed reads")
	}
}

// TestStepReadsEachStreamedTileOnce counts the store reads of one LSQR
// step on a quarter-budget store: once a warm-up step has settled the
// resident set, MulVecStep and MulVecNormal each add exactly one miss
// per tile the store does not keep — the adjoint half runs on the tile
// row the forward half read — and so does a one-worker
// FreqOperator.ApplyStep over both matrices.
func TestStepReadsEachStreamedTileOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const nb = 8
	k := literalKernel(rng, 2, 53, 47, nb, mixedRanks(nb))
	st, err := OpenBytes(pagedImage(t, k, nil), kernelBytes(k)/4)
	if err != nil {
		t.Fatal(err)
	}
	mats := make([]*tlr.Matrix, len(k.Mats))
	for f := range mats {
		if mats[f], err = st.Matrix(f); err != nil {
			t.Fatal(err)
		}
	}
	m, n := mats[0].M, mats[0].N
	x, u := randVec(rng, n), randVec(rng, m)
	w, z := make([]complex64, m), make([]complex64, n)
	for _, tm := range mats {
		tm.MulVecStep(x, 1, 0.5, u, w, z)
	}
	streamed := make([]int64, len(mats))
	for f, tm := range mats {
		for idx, pt := range st.pf.Mats[f].Tiles {
			if !st.Cache().Resident(st.matBase[f] + idx) {
				if pt.Rank == 0 {
					t.Fatalf("f=%d tile %d has no factors and is not resident", f, idx)
				}
				streamed[f]++
			}
		}
		if streamed[f] == 0 || streamed[f] == int64(len(tm.Tiles)) {
			t.Fatalf("f=%d: %d of %d tiles streamed; the budget keeps all or none", f, streamed[f], len(tm.Tiles))
		}
	}
	misses := func(product func()) int64 {
		before := st.Stats().Misses
		product()
		return st.Stats().Misses - before
	}
	for f, tm := range mats {
		if got := misses(func() { tm.MulVecStep(x, 1, 0.5, u, w, z) }); got != streamed[f] {
			t.Errorf("f=%d MulVecStep: %d misses, want one per streamed tile (%d)", f, got, streamed[f])
		}
		if got := misses(func() { tm.MulVecNormal(x, z) }); got != streamed[f] {
			t.Errorf("f=%d MulVecNormal: %d misses, want one per streamed tile (%d)", f, got, streamed[f])
		}
	}
	op := &mdc.FreqOperator{K: &mdc.TLRKernel{Mats: mats}, Workers: 1}
	xx, ww, zz := randVec(rng, op.Cols()), make([]complex64, op.Rows()), make([]complex64, op.Cols())
	if got, want := misses(func() { op.ApplyStep(xx, 0, nil, ww, zz) }), streamed[0]+streamed[1]; got != want {
		t.Errorf("FreqOperator.ApplyStep: %d misses, want one per streamed tile (%d)", got, want)
	}
}

// TestStressStreamedProductsShareOneStore runs forward and adjoint
// products and LSQR steps from several goroutines over one
// quarter-budget store — a FreqOperator on four workers (Apply and
// ApplyAdjoint, or ApplyStep, each step on a tile-row checkout of its
// own) and direct sequential products on single matrices — while a
// sampler watches the resident bytes. Every result
// must equal the in-memory product bit for bit, and resident bytes must
// stay within the budget at every sample. Run under -race by
// `make race-stress`.
func TestStressStreamedProductsShareOneStore(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run via make race-stress")
	}
	suite.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(47))
	const nb = 16
	k := literalKernel(rng, 4, 96, 80, nb, mixedRanks(nb))
	st, err := OpenBytes(pagedImage(t, k, nil), kernelBytes(k)/4)
	if err != nil {
		t.Fatal(err)
	}
	oocs := make([]*tlr.Matrix, len(k.Mats))
	for f := range oocs {
		if oocs[f], err = st.Matrix(f); err != nil {
			t.Fatal(err)
		}
	}
	mem := &mdc.FreqOperator{K: &mdc.TLRKernel{Mats: k.Mats}, Workers: 1}
	ooc := &mdc.FreqOperator{K: &mdc.TLRKernel{Mats: oocs}, Workers: 4}
	x, xa := randVec(rng, mem.Cols()), randVec(rng, mem.Rows())
	want, wantAdj := make([]complex64, mem.Rows()), make([]complex64, mem.Cols())
	wantW, wantZ := make([]complex64, mem.Rows()), make([]complex64, mem.Cols())
	mem.Apply(x, want)
	mem.ApplyAdjoint(xa, wantAdj)
	mem.ApplyStep(x, 0.61, xa, wantW, wantZ)
	m, n := k.Mats[0].M, k.Mats[0].N

	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			if s := st.Stats(); s.ResidentBytes > s.Budget {
				t.Errorf("resident %d over budget %d", s.ResidentBytes, s.Budget)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 9; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				switch w % 3 {
				case 0:
					y, ya := make([]complex64, mem.Rows()), make([]complex64, mem.Cols())
					ooc.Apply(x, y)
					ooc.ApplyAdjoint(xa, ya)
					if !sameBits(y, want) || !sameBits(ya, wantAdj) {
						t.Errorf("goroutine %d rep %d: FreqOperator differs from in memory", w, rep)
						return
					}
				case 1:
					sw, sz := make([]complex64, mem.Rows()), make([]complex64, mem.Cols())
					ooc.ApplyStep(x, 0.61, xa, sw, sz)
					if !sameBits(sw, wantW) || !sameBits(sz, wantZ) {
						t.Errorf("goroutine %d rep %d: FreqOperator.ApplyStep differs from in memory", w, rep)
						return
					}
				default:
					f := (w + rep) % len(oocs)
					y, ya := make([]complex64, m), make([]complex64, n)
					oocs[f].MulVec(x[f*n:(f+1)*n], y)
					oocs[f].MulVecConjTrans(xa[f*m:(f+1)*m], ya)
					if !sameBits(y, want[f*m:(f+1)*m]) || !sameBits(ya, wantAdj[f*n:(f+1)*n]) {
						t.Errorf("goroutine %d rep %d: matrix %d differs from in memory", w, rep, f)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	sampler.Wait()
	if s := st.Stats(); s.Hits == 0 || s.Evictions == 0 {
		t.Errorf("quarter budget exercised no hit or no streamed read: %+v", s)
	}
}
