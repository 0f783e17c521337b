package testkit

import (
	"fmt"

	"repro/internal/cs2"
	"repro/internal/dense"
	"repro/internal/mdc"
	"repro/internal/opstore"
	"repro/internal/tlr"
	"repro/internal/wsesim"
)

// hotPath is one kernel of the allocation-budget contract. This
// registry is the whole contract: every entry's op must measure
// 0 allocs/op under testing.AllocsPerRun once warmed up
// (TestHotPathAllocs, tier-1).
type hotPath struct {
	// Name is the kernel's subtest name.
	Name string
	// Setup builds the kernel's operands deterministically and returns
	// the steady-state operation to measure.
	Setup func() (op func(), err error)
}

// hotPathDims are the shared deterministic problem dimensions: big
// enough for multiple tiles in both grid directions (edge tiles
// included), small enough to keep the gate fast.
const (
	hotM  = 48
	hotN  = 40
	hotNB = 16
)

// hotPathMatrix builds the shared deterministic TLR matrix.
func hotPathMatrix() (*tlr.Matrix, error) {
	rng := NewRNG(7)
	a := DecayMat(rng, hotM, hotN, 0.5)
	return tlr.Compress(a, tlr.Options{NB: hotNB, Tol: 1e-4, Workers: 1})
}

// hotPaths returns the runtime allocation-budget registry. Every entry
// runs single-worker: the parallel paths spawn goroutines whose
// allocations are legitimate scheduling cost, not kernel cost.
func hotPaths() []hotPath {
	return []hotPath{
		{Name: "tlr.mulvec", Setup: func() (func(), error) {
			t, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			x, y := make([]complex64, hotN), make([]complex64, hotM)
			x[0], x[hotN-1] = 1, 2i
			return func() { t.MulVec(x, y) }, nil
		}},
		{Name: "tlr.mulvec_adjoint", Setup: func() (func(), error) {
			t, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			x, y := make([]complex64, hotM), make([]complex64, hotN)
			x[0], x[hotM-1] = 1, 2i
			return func() { t.MulVecConjTrans(x, y) }, nil
		}},
		{Name: "tlr.mulvec_normal", Setup: func() (func(), error) {
			t, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			x, y := make([]complex64, hotN), make([]complex64, hotN)
			x[0], x[hotN-1] = 1, 2i
			return func() { t.MulVecNormal(x, y) }, nil
		}},
		{Name: "tlr.mulvec_step", Setup: func() (func(), error) {
			t, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			return hotPathStep(t), nil
		}},
		{Name: "mdc.kernel_dense", Setup: func() (func(), error) {
			rng := NewRNG(7)
			k, err := mdc.NewDenseKernel([]*dense.Matrix{DecayMat(rng, hotM, hotN, 0.5)})
			if err != nil {
				return nil, err
			}
			x, y := make([]complex64, hotN), make([]complex64, hotM)
			x[0] = 1
			return func() { k.Apply(0, x, y) }, nil
		}},
		{Name: "mdc.kernel_tlr", Setup: func() (func(), error) {
			t, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			k := &mdc.TLRKernel{Mats: []*tlr.Matrix{t}}
			x, y := make([]complex64, hotN), make([]complex64, hotM)
			x[0] = 1
			return func() { k.Apply(0, x, y) }, nil
		}},
		{Name: "mdc.kernel_tlr_normal", Setup: func() (func(), error) {
			t, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			k := &mdc.TLRKernel{Mats: []*tlr.Matrix{t}}
			x, y := make([]complex64, hotN), make([]complex64, hotN)
			x[0] = 1
			return func() { k.ApplyNormal(0, x, y) }, nil
		}},
		{Name: "opstore.tile_hit", Setup: func() (func(), error) {
			st, nTiles, err := hotPathStore()
			if err != nil {
				return nil, err
			}
			c := st.Cache()
			// Warm every tile in: the generous budget admits them all, so
			// the measured op cycles through pure cache hits — one atomic
			// pointer load plus counter bumps, 0 allocs.
			for g := 0; g < nTiles; g++ {
				if _, err := c.Tile(g); err != nil {
					return nil, err
				}
			}
			g := 0
			return func() {
				if _, err := c.Tile(g); err != nil {
					panic(err)
				}
				g++
				if g == nTiles {
					g = 0
				}
			}, nil
		}},
		{Name: "tlr.mulvec_ooc", Setup: func() (func(), error) {
			st, _, err := hotPathStore()
			if err != nil {
				return nil, err
			}
			t, err := st.Matrix(0)
			if err != nil {
				return nil, err
			}
			x, y := make([]complex64, hotN), make([]complex64, hotM)
			x[0], x[hotN-1] = 1, 2i
			// The warm-up run admits every tile at the budget above, so
			// the measured product is all cache hits through
			// Matrix.tileAt.
			return func() { t.MulVec(x, y) }, nil
		}},
		{Name: "tlr.mulvec_ooc_stream", Setup: func() (func(), error) {
			m, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			st, err := pagedStore(m, nil, m.CompressedBytes()/4)
			if err != nil {
				return nil, err
			}
			t, err := st.Matrix(0)
			if err != nil {
				return nil, err
			}
			x, y := make([]complex64, hotN), make([]complex64, hotM)
			x[0], x[hotN-1] = 1, 2i
			// A quarter budget: the warm-up pair admits the tiles that
			// fit, and every later product reads the rest into the tile
			// row it checks out with its rank segment.
			return func() {
				t.MulVec(x, y)
				t.MulVecConjTrans(y, x)
			}, nil
		}},
		{Name: "tlr.mulvec_step_ooc_stream", Setup: func() (func(), error) {
			m, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			st, err := pagedStore(m, nil, m.CompressedBytes()/4)
			if err != nil {
				return nil, err
			}
			t, err := st.Matrix(0)
			if err != nil {
				return nil, err
			}
			// A quarter budget, as tlr.mulvec_ooc_stream: the forward
			// half reads each tile the store does not keep into its slot
			// of the checkout's tile row, and the adjoint half reuses it.
			return hotPathStep(t), nil
		}},
		{Name: "wsesim.mulvec", Setup: func() (func(), error) {
			t, err := hotPathMatrix()
			if err != nil {
				return nil, err
			}
			m, err := wsesim.Build(t, hotNB, cs2.DefaultArch())
			if err != nil {
				return nil, fmt.Errorf("testkit: building wsesim machine: %w", err)
			}
			x, y := make([]complex64, hotN), make([]complex64, hotM)
			x[0], x[hotN-1] = 1, 2i
			return func() { m.MulVec(x, y) }, nil
		}},
	}
}

// hotPathStep is one LSQR step on t, w = 0.5·A x − 0.75·u and z = Aᴴ w,
// in one sweep.
func hotPathStep(t *tlr.Matrix) func() {
	x, u := make([]complex64, hotN), make([]complex64, hotM)
	w, z := make([]complex64, hotM), make([]complex64, hotN)
	x[0], x[hotN-1], u[1] = 1, 2i, 3
	return func() { t.MulVecStep(x, 0.5, 0.75, u, w, z) }
}

// hotPathStore pages the shared deterministic matrix into an in-memory
// tile store with a budget generous enough to admit every tile — the
// cache-hit steady state opstore.tile_hit and tlr.mulvec_ooc are gated
// on.
func hotPathStore() (*opstore.Store, int, error) {
	t, err := hotPathMatrix()
	if err != nil {
		return nil, 0, err
	}
	st, err := pagedStore(t, nil, 4*t.CompressedBytes()+4096)
	if err != nil {
		return nil, 0, err
	}
	return st, t.MT * t.NT, nil
}
