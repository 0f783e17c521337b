package tlr

// The rank-map views below are read only by tests.

// ColumnStackedSizes returns, for each tile column j, the total stacked V
// rank Σ_i k_{ij} — the height of the stacked V base of Fig. 4/9 that the
// CS-2 mapping distributes over PEs.
func (t *Matrix) ColumnStackedSizes() []int {
	out := make([]int, t.NT)
	for j := 0; j < t.NT; j++ {
		for i := 0; i < t.MT; i++ {
			out[j] += t.rankAt(i*t.NT + j)
		}
	}
	return out
}

// RowStackedSizes returns, for each tile row i, the total stacked U rank
// Σ_j k_{ij}.
func (t *Matrix) RowStackedSizes() []int {
	out := make([]int, t.MT)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			out[i] += t.rankAt(i*t.NT + j)
		}
	}
	return out
}

// Ranks returns the mt×nt rank map (row-major).
func (t *Matrix) Ranks() []int {
	out := make([]int, len(t.Tiles))
	for idx := range t.Tiles {
		out[idx] = t.rankAt(idx)
	}
	return out
}
