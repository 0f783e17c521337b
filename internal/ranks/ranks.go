// Package ranks models the tile-rank structure of the paper's full-scale
// compressed dataset. We cannot materialize the 763 GB of frequency
// matrices, but every paper-scale performance number depends only on the
// *rank layout* — how many rank-rows each tile column stacks, hence how
// many bytes and FMACs each PE executes. This package generates that
// layout from a distance-decay model of post-Hilbert-sort tile ranks
// (energy concentrates near the tile diagonal, ranks grow with frequency)
// and calibrates a single scale factor per configuration so the aggregate
// compressed size matches the totals published in Fig. 12.
package ranks

import (
	"fmt"
	"math"
)

// Paper-scale dataset constants (§6.1).
const (
	// PaperRows is the source count of each frequency matrix (217×120).
	PaperRows = 26040
	// PaperCols is the receiver count (177×90).
	PaperCols = 15930
	// PaperFreqs is the number of stored frequency matrices.
	PaperFreqs = 230
	// PaperDenseBytes is the dense dataset size (≈763 GB).
	PaperDenseBytes = int64(PaperRows) * int64(PaperCols) * 8 * PaperFreqs
)

// Config identifies a (tile size, accuracy) compression configuration.
type Config struct {
	NB  int
	Acc float64
}

func (c Config) String() string { return fmt.Sprintf("nb=%d acc=%.0e", c.NB, c.Acc) }

// Fig12TotalBytes maps every configuration of Fig. 12 to its published
// aggregate compressed size.
var Fig12TotalBytes = map[Config]int64{
	{25, 1e-4}: 110e9, {25, 3e-4}: 67e9, {25, 5e-4}: 59e9, {25, 7e-4}: 57e9,
	{50, 1e-4}: 109e9, {50, 3e-4}: 63e9, {50, 5e-4}: 47e9, {50, 7e-4}: 39e9,
	{70, 1e-4}: 112e9, {70, 3e-4}: 66e9, {70, 5e-4}: 49e9, {70, 7e-4}: 40e9,
}

// Fig12Tol is the relative deviation from its Fig. 12 total every
// calibrated distribution is held to.
const Fig12Tol = 0.02

// Params configures a rank-distribution model.
type Params struct {
	// NB is the tile size.
	NB int
	// Rows, Cols, NumFreqs give the matrix stack extents.
	Rows, Cols, NumFreqs int
	// TargetBytes is the aggregate compressed size to calibrate to.
	TargetBytes int64
	// DecayLength is the e-folding distance (in normalized diagonal
	// offset) of the post-Hilbert rank decay (default 0.10).
	DecayLength float64
	// FreqFloor is the rank fraction retained at zero frequency relative
	// to the top of the band (default 0.25): ranks grow with frequency as
	// Fig. 12's per-frequency size curves show.
	FreqFloor float64
}

// Distribution is a calibrated rank layout.
type Distribution struct {
	Params
	// MT, NT are the tile-grid extents.
	MT, NT int
	// Lambda is the calibrated scale factor.
	Lambda float64
	// stacked[f][j] caches Σ_i rank(f,i,j) per tile column, built lazily.
	stacked [][]int
	// totalRankRows caches Σ ranks over every tile and frequency.
	totalRankRows int64
	// totalNonzeroTiles caches the number of tiles with rank > 0.
	totalNonzeroTiles int64
	// nonzeroColumns caches the number of (f, j) columns with Sv > 0.
	nonzeroColumns int64
}

// New builds the paper-scale distribution for a Fig. 12 configuration.
func New(cfg Config) (*Distribution, error) {
	target, ok := Fig12TotalBytes[cfg]
	if !ok {
		return nil, fmt.Errorf("ranks: no Fig. 12 total for %v", cfg)
	}
	return NewCustom(Params{
		NB: cfg.NB, Rows: PaperRows, Cols: PaperCols, NumFreqs: PaperFreqs,
		TargetBytes: target,
	})
}

// NewCustom builds a distribution with explicit parameters, used for
// scaled-down tests and ablations.
func NewCustom(p Params) (*Distribution, error) {
	if p.NB <= 0 || p.Rows <= 0 || p.Cols <= 0 || p.NumFreqs <= 0 {
		return nil, fmt.Errorf("ranks: nonpositive extent in %+v", p)
	}
	if p.TargetBytes <= 0 {
		return nil, fmt.Errorf("ranks: nonpositive target size")
	}
	if p.DecayLength == 0 {
		p.DecayLength = 0.10
	}
	if p.FreqFloor == 0 {
		p.FreqFloor = 0.25
	}
	d := &Distribution{
		Params: p,
		MT:     (p.Rows + p.NB - 1) / p.NB,
		NT:     (p.Cols + p.NB - 1) / p.NB,
	}
	if err := d.calibrate(); err != nil {
		return nil, err
	}
	return d, nil
}

// freqShape returns the relative rank scale of frequency index f.
func (d *Distribution) freqShape(f int) float64 {
	if d.NumFreqs == 1 {
		return 1
	}
	x := float64(f) / float64(d.NumFreqs-1)
	return d.FreqFloor + (1-d.FreqFloor)*x
}

// diagDistance returns the normalized diagonal offset of tile (i, j).
func (d *Distribution) diagDistance(i, j int) float64 {
	return math.Abs(float64(i)/float64(d.MT) - float64(j)/float64(d.NT))
}

// Rank returns the modelled rank of tile (i, j) at frequency f.
func (d *Distribution) Rank(f, i, j int) int {
	g := math.Exp(-d.diagDistance(i, j) / d.DecayLength)
	r := int(math.Round(d.Lambda * d.freqShape(f) * g))
	if r < 0 {
		r = 0
	}
	if r > d.NB {
		r = d.NB
	}
	return r
}

// calibrate bisects Lambda so the aggregate compressed size matches
// TargetBytes. Each rank-row stores NB complex64 elements in both its U
// and V base: bytes = 16·NB·Σranks. For speed, the diagonal-offset values
// are histogrammed once (they depend only on (i, j)).
func (d *Distribution) calibrate() error {
	const bins = 2048
	hist := make([]int64, bins)
	maxD := 0.0
	for i := 0; i < d.MT; i++ {
		for j := 0; j < d.NT; j++ {
			if dd := d.diagDistance(i, j); dd > maxD {
				maxD = dd
			}
		}
	}
	if maxD == 0 {
		maxD = 1
	}
	for i := 0; i < d.MT; i++ {
		for j := 0; j < d.NT; j++ {
			b := int(d.diagDistance(i, j) / maxD * float64(bins-1))
			hist[b]++
		}
	}
	gOf := func(b int) float64 {
		dd := float64(b) / float64(bins-1) * maxD
		return math.Exp(-dd / d.DecayLength)
	}
	totalFor := func(lambda float64) int64 {
		var rows int64
		for f := 0; f < d.NumFreqs; f++ {
			s := lambda * d.freqShape(f)
			for b := 0; b < bins; b++ {
				if hist[b] == 0 {
					continue
				}
				r := int64(math.Round(s * gOf(b)))
				if r < 0 {
					r = 0
				}
				if r > int64(d.NB) {
					r = int64(d.NB)
				}
				rows += r * hist[b]
			}
		}
		return rows * 16 * int64(d.NB)
	}
	// hi must drive even the farthest, lowest-frequency tile to full rank
	// so the bisection can reach the full-rank ceiling.
	gMin := math.Exp(-maxD / d.DecayLength)
	lo, hi := 1e-9, 2*float64(d.NB)/(d.FreqFloor*gMin)
	if totalFor(hi) < d.TargetBytes {
		return fmt.Errorf("ranks: target %d B unreachable (max %d B)", d.TargetBytes, totalFor(hi))
	}
	for it := 0; it < 80; it++ {
		mid := (lo + hi) / 2
		if totalFor(mid) < d.TargetBytes {
			lo = mid
		} else {
			hi = mid
		}
	}
	d.Lambda = (lo + hi) / 2
	return nil
}

// stackedColumnHeights returns Sv[f][j] = Σ_i rank(f, i, j): the height of
// the stacked V base (and width of the side-by-side U base) of tile column
// j at frequency f — the quantity the CS-2 mapping splits into stack-width
// chunks. The result is computed once and cached.
func (d *Distribution) stackedColumnHeights() [][]int {
	if d.stacked != nil {
		return d.stacked
	}
	// Precompute the per-tile decay factors once; the frequency loop then
	// only scales and rounds (the mt×nt×nf product reaches 1.5e8 at paper
	// scale, so the exp() must stay out of the inner loop).
	g := make([]float64, d.MT*d.NT)
	for j := 0; j < d.NT; j++ {
		for i := 0; i < d.MT; i++ {
			g[j*d.MT+i] = math.Exp(-d.diagDistance(i, j) / d.DecayLength)
		}
	}
	out := make([][]int, d.NumFreqs)
	var total, nzTiles, nzCols int64
	for f := 0; f < d.NumFreqs; f++ {
		row := make([]int, d.NT)
		s := d.Lambda * d.freqShape(f)
		for j := 0; j < d.NT; j++ {
			var sum, nz int
			col := g[j*d.MT : (j+1)*d.MT]
			for _, gij := range col {
				r := int(s*gij + 0.5)
				if r > d.NB {
					r = d.NB
				}
				sum += r
				if r > 0 {
					nz++
				}
			}
			row[j] = sum
			total += int64(sum)
			nzTiles += int64(nz)
			if sum > 0 {
				nzCols++
			}
		}
		out[f] = row
	}
	d.stacked = out
	d.totalRankRows = total
	d.totalNonzeroTiles = nzTiles
	d.nonzeroColumns = nzCols
	return out
}

// TotalRankRows returns Σ ranks over all tiles and frequencies.
func (d *Distribution) TotalRankRows() int64 {
	d.stackedColumnHeights()
	return d.totalRankRows
}

// TotalNonzeroTiles returns the number of tiles with positive rank — the
// number of per-tile U MVM segments the TLR-MVM executes.
func (d *Distribution) TotalNonzeroTiles() int64 {
	d.stackedColumnHeights()
	return d.totalNonzeroTiles
}

// NonzeroColumns returns the number of (frequency, tile-column) pairs with
// positive stacked height.
func (d *Distribution) NonzeroColumns() int64 {
	d.stackedColumnHeights()
	return d.nonzeroColumns
}

// MeanTileRank returns the average rank over nonzero tiles.
func (d *Distribution) MeanTileRank() float64 {
	if d.TotalNonzeroTiles() == 0 {
		return 0
	}
	return float64(d.TotalRankRows()) / float64(d.TotalNonzeroTiles())
}

// TotalBytes returns the modelled compressed size (16·NB bytes per
// rank-row: U and V bases in complex64).
func (d *Distribution) TotalBytes() int64 {
	return 16 * int64(d.NB) * d.TotalRankRows()
}

// BytesPerFrequency returns the compressed size of each frequency matrix,
// reproducing the rising curves of Fig. 12's bottom panel.
func (d *Distribution) BytesPerFrequency() []int64 {
	sv := d.stackedColumnHeights()
	out := make([]int64, d.NumFreqs)
	for f := range sv {
		var rows int64
		for _, s := range sv[f] {
			rows += int64(s)
		}
		out[f] = rows * 16 * int64(d.NB)
	}
	return out
}

// Chunks returns the number of stack-width chunks (= PEs used under strong
// scaling strategy 1, where one PE runs all eight real MVMs of a chunk)
// and the worst (largest) chunk height.
func (d *Distribution) Chunks(sw int) (numChunks int64, worstRows int) {
	if sw <= 0 {
		panic("ranks: nonpositive stack width")
	}
	sv := d.stackedColumnHeights()
	for f := range sv {
		for _, s := range sv[f] {
			if s == 0 {
				continue
			}
			numChunks += int64((s + sw - 1) / sw)
			if s >= sw {
				worstRows = sw
			} else if s > worstRows {
				worstRows = s
			}
		}
	}
	return numChunks, worstRows
}

// StackWidthFor returns the smallest stack width whose chunk count fits
// the given PE budget — the paper's rule of choosing sw so each shard
// "nearly fills all PEs" (Table 1).
func (d *Distribution) StackWidthFor(peBudget int64) int {
	for sw := 1; sw <= d.NB*d.MT; sw++ {
		n, _ := d.Chunks(sw)
		if n <= peBudget {
			return sw
		}
	}
	return d.NB * d.MT
}
