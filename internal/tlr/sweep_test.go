package tlr_test

import (
	"testing"

	"repro/internal/cfloat"
	"repro/internal/testkit"
	"repro/internal/tlr"
)

// countingSource serves an in-memory matrix's tiles through the
// TileSource seam and counts the faults. The out-of-core matrix built
// over it keeps nothing resident, so every tile access is a Tile call.
type countingSource struct {
	tiles []*tlr.Tile
	calls int
}

func (s *countingSource) Tile(idx int) (*tlr.Tile, error) {
	s.calls++
	return s.tiles[idx], nil
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
// the result — in memory and store-backed alike — equals the three-phase
// schedule it replaced to the last bit, over ragged edge tiles,
// zero-rank tiles and full-rank (rank = NB) tiles.
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
			src := &countingSource{tiles: mem.Tiles}
			ooc := tlr.NewOutOfCore(tc.m, tc.n, tc.nb, src)
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
				gotMem, gotOOC := testkit.Vec(rng, dir.outLen), testkit.Vec(rng, dir.outLen)
				dir.mul(mem, x, gotMem)
				src.calls = 0
				dir.mul(ooc, x, gotOOC)
				if want := len(mem.Tiles); src.calls != want {
					t.Errorf("%s: %d tile faults for %d tiles, want one each", dir.name, src.calls, want)
				}
				if d := testkit.MaxULPDist(gotMem, want); d != 0 {
					t.Errorf("%s in memory: %d ULPs from the three-phase schedule", dir.name, d)
				}
				if d := testkit.MaxULPDist(gotOOC, want); d != 0 {
					t.Errorf("%s store-backed: %d ULPs from the three-phase schedule", dir.name, d)
				}
			}
		})
	}
}
