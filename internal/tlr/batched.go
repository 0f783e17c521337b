package tlr

import "repro/internal/batch"

// MulVecBatched computes y = A x by expressing the two TLR-MVM phases as
// variable-size MVM batches over the stacked SoA panels and running them
// on the batch engine — the execution style the paper says vendor
// libraries lack for variable ranks and complex types (§4), and the one
// in-matrix parallel path. One member per tile column (Vcatⱼᴴ·x_j into
// the column-stacked intermediate) and one per tile row (Ucatᵢ·yu_i
// straight into y's disjoint row blocks): MT+NT presplit members with
// the explicit shuffle in between and no partials reduction. All
// intermediates come from the layout's scratch free list, so the
// steady-state product performs no allocations. workers <= 0 uses
// GOMAXPROCS. Registered hot path.
func (t *Matrix) MulVecBatched(x, y []complex64, workers int) error {
	if len(x) < t.N || len(y) < t.M {
		panic("tlr: MulVecBatched vector too short")
	}
	defer obsBatched.Start().End()
	meterMVM(obsBatMeter, t)
	l := t.getSoA()
	s := l.getScratch(t)
	defer l.putScratch(s)
	// phase 1: yvc segment of column j = Vcatⱼᴴ x_j
	opts := batch.Options{Workers: workers}
	if err := batch.Run(l.v.members(s.tasks, batch.OpC, x, s.yvc), opts); err != nil {
		return err
	}
	// phase 2: shuffle the column-stacked intermediate into the
	// row-stacked ordering
	shuffle(t, l, true, s.yvc, s.yv)
	// phase 3: y_i = Ucatᵢ yu_i, disjoint row blocks — no reduction
	return batch.Run(l.u.members(s.tasks, batch.OpN, y, s.yv), opts)
}
