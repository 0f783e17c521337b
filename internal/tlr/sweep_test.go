package tlr_test

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cfloat"
	"repro/internal/dense"
	"repro/internal/ranks"
	"repro/internal/testkit"
	"repro/internal/tlr"
)

// countingSource serves an in-memory matrix's tiles through the
// TileSource seam and counts the faults. The out-of-core matrix built
// over it keeps nothing resident, so every tile access is a Tile call.
// With viaScratch it copies each tile into the caller's scratch and
// serves the copy, as a store serves a tile it does not keep.
type countingSource struct {
	tiles      []*tlr.Tile
	viaScratch bool
	calls      int
}

func (s *countingSource) Tile(idx int, ts *tlr.TileScratch) (*tlr.Tile, error) {
	s.calls++
	tile := s.tiles[idx]
	if !s.viaScratch {
		return tile, nil
	}
	u, v := tile.U, tile.V
	nu, nv := u.Rows*u.Cols, v.Rows*v.Cols
	if ts == nil || len(ts.Data) < 1+nu+nv {
		return nil, errors.New("no scratch with room for the tile and a header element")
	}
	f := ts.Data[1 : 1+nu+nv]
	for j := 0; j < u.Cols; j++ {
		copy(f[j*u.Rows:], u.Col(j))
		copy(f[nu+j*v.Rows:], v.Col(j))
	}
	return ts.View(u.Rows, v.Rows, u.Cols, f), nil
}

func (s *countingSource) Rank(idx int) int { return s.tiles[idx].Rank() }

// threePhase is the schedule MulVec and MulVecConjTrans ran before they
// became one sweep, kept here as the reference the sweep must equal bit
// for bit: every projection into a stacked rank vector first (phase 1,
// walked down tile columns forward and along tile rows adjoint), then
// every output block accumulated from its segments in ascending tile
// order (phase 3; phase 2, the shuffle, is the re-indexing between).
func threePhase(tm *tlr.Matrix, adjoint bool, x, y []complex64) {
	off := make([]int, len(tm.Tiles)+1)
	for idx, tile := range tm.Tiles {
		off[idx+1] = off[idx] + tile.Rank()
	}
	yv := make([]complex64, off[len(tm.Tiles)])
	rows := func(i int) (int, int) { return i * tm.NB, min((i+1)*tm.NB, tm.M) }
	cols := func(j int) (int, int) { return j * tm.NB, min((j+1)*tm.NB, tm.N) }
	if !adjoint {
		for j := 0; j < tm.NT; j++ {
			c0, c1 := cols(j)
			for i := 0; i < tm.MT; i++ {
				idx := i*tm.NT + j
				tm.Tiles[idx].V.MulVecConjTrans(x[c0:c1], yv[off[idx]:off[idx+1]])
			}
		}
		for i := 0; i < tm.MT; i++ {
			r0, r1 := rows(i)
			yi := y[r0:r1]
			for k := range yi {
				yi[k] = 0
			}
			for j := 0; j < tm.NT; j++ {
				idx := i*tm.NT + j
				u := tm.Tiles[idx].U
				cfloat.Gemv(cfloat.NoTrans, u.Rows, u.Cols, 1, u.Data, u.Stride, yv[off[idx]:off[idx+1]], 1, yi)
			}
		}
		return
	}
	for i := 0; i < tm.MT; i++ {
		r0, r1 := rows(i)
		for j := 0; j < tm.NT; j++ {
			idx := i*tm.NT + j
			tm.Tiles[idx].U.MulVecConjTrans(x[r0:r1], yv[off[idx]:off[idx+1]])
		}
	}
	for j := 0; j < tm.NT; j++ {
		c0, c1 := cols(j)
		yj := y[c0:c1]
		for k := range yj {
			yj[k] = 0
		}
		for i := 0; i < tm.MT; i++ {
			idx := i*tm.NT + j
			v := tm.Tiles[idx].V
			cfloat.Gemv(cfloat.NoTrans, v.Rows, v.Cols, 1, v.Data, v.Stride, yv[off[idx]:off[idx+1]], 1, yj)
		}
	}
}

// TestSweepOneFaultPerTileAndBitIdentical pins the two properties of the
// sequential products' tile sweep: a matrix that keeps nothing resident
// faults each tile exactly once per product, forward and adjoint, and
// the result — in memory, store-backed and streamed through the
// product's tile scratch alike — equals the three-phase schedule it
// replaced to the last bit, over ragged edge tiles, zero-rank tiles and
// full-rank (rank = NB) tiles.
func TestSweepOneFaultPerTileAndBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		m, n, nb int
		rank     func(i, j int) int
	}{
		{"ragged-edges", 53, 47, 16, func(i, j int) int { return 1 + (i+2*j)%5 }},
		{"zero-rank-row-and-col", 30, 27, 8, func(i, j int) int {
			if i == 1 || j == 2 {
				return 0
			}
			return 1 + (i+j)%4
		}},
		{"all-zero-rank", 20, 12, 8, func(i, j int) int { return 0 }},
		{"rank-nb", 32, 24, 8, func(i, j int) int { return 8 }},
		{"rank-nb-ragged", 29, 21, 8, func(i, j int) int { return 8 }},
		{"single-tile", 10, 7, 16, func(i, j int) int { return 3 }},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := testkit.NewRNG(int64(310 + ci))
			mem := literalMatrix(rng, tc.m, tc.n, tc.nb, tc.rank)
			srcs := []*countingSource{{tiles: mem.Tiles}, {tiles: mem.Tiles, viaScratch: true}}
			for _, dir := range []struct {
				name          string
				adjoint       bool
				inLen, outLen int
				mul           func(tm *tlr.Matrix, x, y []complex64)
			}{
				{"forward", false, tc.n, tc.m, (*tlr.Matrix).MulVec},
				{"adjoint", true, tc.m, tc.n, (*tlr.Matrix).MulVecConjTrans},
			} {
				x := testkit.Vec(rng, dir.inLen)
				want := make([]complex64, dir.outLen)
				threePhase(mem, dir.adjoint, x, want)
				// a stale output must be overwritten, not accumulated into
				gotMem := testkit.Vec(rng, dir.outLen)
				dir.mul(mem, x, gotMem)
				if d := testkit.MaxULPDist(gotMem, want); d != 0 {
					t.Errorf("%s in memory: %d ULPs from the three-phase schedule", dir.name, d)
				}
				for _, src := range srcs {
					ooc := tlr.NewOutOfCore(tc.m, tc.n, tc.nb, src)
					got := testkit.Vec(rng, dir.outLen)
					src.calls = 0
					dir.mul(ooc, x, got)
					if want := len(mem.Tiles); src.calls != want {
						t.Errorf("%s (scratch %v): %d tile faults for %d tiles, want one each", dir.name, src.viaScratch, src.calls, want)
					}
					if d := testkit.MaxULPDist(got, want); d != 0 {
						t.Errorf("%s store-backed (scratch %v): %d ULPs from the three-phase schedule", dir.name, src.viaScratch, d)
					}
				}
			}
		})
	}
}

// boundedVec returns n seeded values uniform in [-0.5, 0.5)², the
// bounded generator the benchmark fills its operators and right-hand
// sides from: no Gaussian tail decides a tolerance.
func boundedVec(rng *rand.Rand, n int) []complex64 {
	x := make([]complex64, n)
	fillBounded(rng, x)
	return x
}

func fillBounded(rng *rand.Rand, x []complex64) {
	for i := range x {
		x[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
}

func dot128(x, y []complex64) (s complex128) {
	for i := range x {
		s += cmplx.Conj(complex128(x[i])) * complex128(y[i])
	}
	return s
}

// TestSweepDotAndLinearity puts the two metamorphic identities an LSQR
// operator must satisfy to the sequential products on the operator the
// benchmark times: solve-dram's layout at its smoke scale (the paper's
// distance-decay rank map through ranks.NewCustom, literal-built tiles,
// bounded uniform factors), which has what a compressed survey never
// produces — zero-rank tiles off the diagonal and rank = nb tiles on it.
// Errors are measured against ‖A‖·‖x‖(·‖y‖) with ‖A‖ taken as
// (Σ‖U_ij‖²‖V_ij‖²)^½, the norm the factored product is backward stable
// in — never against the result, which may cancel.
func TestSweepDotAndLinearity(t *testing.T) {
	const rows, cols, nb, freqs = 384, 192, 32, 4
	dist, err := ranks.NewCustom(ranks.Params{NB: nb, Rows: rows, Cols: cols, NumFreqs: freqs, TargetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tol := testkit.ExecTolerance(rows)
	for f := 0; f < freqs; f++ {
		rng := testkit.NewRNG(int64(520 + f))
		tm := &tlr.Matrix{M: rows, N: cols, NB: nb, MT: dist.MT, NT: dist.NT, Tiles: make([]*tlr.Tile, dist.MT*dist.NT)}
		var anorm2 float64
		var zeroRank, fullRank int
		for idx := range tm.Tiles {
			k := min(dist.Rank(f, idx/dist.NT, idx%dist.NT), nb)
			switch k {
			case 0:
				zeroRank++
			case nb:
				fullRank++
			}
			u, v := dense.New(nb, k), dense.New(nb, k)
			fillBounded(rng, u.Data)
			fillBounded(rng, v.Data)
			tm.Tiles[idx] = &tlr.Tile{U: u, V: v}
			nu, nv := cfloat.Nrm2(u.Data), cfloat.Nrm2(v.Data)
			anorm2 += nu * nu * nv * nv
		}
		anorm := math.Sqrt(anorm2)
		if f == freqs-1 && (zeroRank == 0 || fullRank == 0) {
			t.Fatalf("top frequency has %d zero-rank and %d rank-nb tiles; the layout no longer covers both", zeroRank, fullRank)
		}

		x, y := boundedVec(rng, cols), boundedVec(rng, rows)
		nx, ny := cfloat.Nrm2(x), cfloat.Nrm2(y)
		ax, ahy := make([]complex64, rows), make([]complex64, cols)
		tm.MulVec(x, ax)
		tm.MulVecConjTrans(y, ahy)
		// ⟨y, A x⟩ = ⟨Aᴴ y, x⟩
		if gap := cmplx.Abs(dot128(y, ax)-dot128(ahy, x)) / (anorm * nx * ny); !(gap <= tol) {
			t.Errorf("freq %d: dot-test gap %g of ‖A‖‖x‖‖y‖ > %g", f, gap, tol)
		}

		// A(a·x + x₂) = a·A x + A x₂, and the same for Aᴴ
		const a = complex64(0.75 - 1.5i)
		for _, dir := range []struct {
			name      string
			mul       func(x, y []complex64)
			x1, first []complex64 // an input and its product, from the dot test
		}{
			{"MulVec", tm.MulVec, x, ax},
			{"MulVecConjTrans", tm.MulVecConjTrans, y, ahy},
		} {
			x2 := boundedVec(rng, len(dir.x1))
			comb := make([]complex64, len(x2))
			for i := range comb {
				comb[i] = a*dir.x1[i] + x2[i]
			}
			y2, yc := make([]complex64, len(dir.first)), make([]complex64, len(dir.first))
			dir.mul(x2, y2)
			dir.mul(comb, yc)
			var num float64
			for i := range yc {
				d := complex128(yc[i]) - (complex128(a)*complex128(dir.first[i]) + complex128(y2[i]))
				num += real(d)*real(d) + imag(d)*imag(d)
			}
			scale := anorm * (cmplx.Abs(complex128(a))*cfloat.Nrm2(dir.x1) + cfloat.Nrm2(x2))
			if e := math.Sqrt(num) / scale; !(e <= tol) {
				t.Errorf("freq %d: %s linearity error %g of ‖A‖(|a|‖x‖+‖x₂‖) > %g", f, dir.name, e, tol)
			}
		}
	}
}
