// Package wse maps the communication-avoiding TLR-MVM of §5.3 (Fig. 9)
// onto Cerebras CS-2 systems and evaluates the paper's performance
// metrics. The layout: for every (frequency, tile column), the V bases are
// stacked vertically and the U bases stored side by side; the stack is
// split into stack-width chunks; each chunk's complex MVM decomposes into
// eight real MVMs (four V-side sw×nb, four U-side nb×sw that sweep the
// chunk's tile blocks). The memory-shuffle phase of the generic TLR-MVM is
// eliminated; the extra per-tile y traffic stays in local SRAM.
//
// Two strong-scaling strategies (§6.7) are modelled:
//
//	Strategy 1: all eight MVMs of a chunk on one PE; scaling splits the
//	  stack width, trading arithmetic intensity for concurrency.
//	Strategy 2: the eight MVMs scatter onto eight PEs, replicating the
//	  bases (2× base memory) but preserving arithmetic intensity.
package wse

import (
	"fmt"
	"math"

	"repro/internal/cs2"
	"repro/internal/obs"
	"repro/internal/ranks"
)

// Machine-model metrics (§6.5–§6.7): the cycle, traffic, and SRAM
// quantities of the most recent Plan.Evaluate, published through the
// shared obs registry under the cs2 namespace so they sit beside the
// executed wsesim meters rather than only in the Metrics struct.
var (
	obsEvaluate    = obs.NewTimer("wse.evaluate")
	obsWorstCycles = obs.NewGauge("cs2.worst_cycles")
	obsRelBytes    = obs.NewGauge("cs2.relative_bytes")
	obsAbsBytes    = obs.NewGauge("cs2.absolute_bytes")
	obsPEsUsed     = obs.NewGauge("cs2.pes_used")
	obsPerPESRAM   = obs.NewGauge("cs2.per_pe_matrix_bytes")
)

// Strategy selects the strong-scaling approach of §6.7.
type Strategy int

const (
	// Strategy1 runs all 8 real MVMs of a chunk on a single PE.
	Strategy1 Strategy = iota + 1
	// Strategy2 scatters the 8 real MVMs of a chunk onto 8 PEs.
	Strategy2
)

func (s Strategy) String() string {
	switch s {
	case Strategy1:
		return "strategy1-split-stack-width"
	case Strategy2:
		return "strategy2-scatter-mvms"
	}
	return "unknown"
}

// Plan describes one experiment: a calibrated rank layout deployed across
// a number of CS-2 systems at a given stack width.
type Plan struct {
	Dist       *ranks.Distribution
	StackWidth int
	Systems    int
	Strategy   Strategy
}

// Metrics reports the quantities of Tables 1–5.
type Metrics struct {
	NB         int
	StackWidth int
	Systems    int
	Strategy   Strategy
	// PEsUsed is the chunk count (×8 for strategy 2) — Table 1.
	PEsUsed int64
	// Occupancy is PEsUsed over the deployed PE budget — Table 1.
	Occupancy float64
	// WorstCycles is the slowest PE's cycle count — Table 2.
	WorstCycles int64
	// RelativeBytes / AbsoluteBytes are total memory accesses — Table 2.
	RelativeBytes int64
	AbsoluteBytes int64
	// RelativeBW / AbsoluteBW are aggregate sustained bandwidths in B/s —
	// Tables 3–5.
	RelativeBW float64
	AbsoluteBW float64
	// FlopRate is the aggregate flop/s — Tables 3–5.
	FlopRate float64
	// TimeSeconds is the kernel wall time (worst cycles / clock).
	TimeSeconds float64
	// TilesPerChunk is the modelled worst-chunk tile-block count.
	TilesPerChunk int
	// PerPEMatrixBytes is the FP32 base storage on the busiest PE.
	PerPEMatrixBytes int
	// BaseReplication is the total base storage relative to strategy 1
	// (2.0 under strategy 2's scattering).
	BaseReplication float64
}

// Evaluate computes the metrics of the plan.
func (p Plan) Evaluate() (*Metrics, error) {
	defer obsEvaluate.Start().End()
	if p.Dist == nil {
		return nil, fmt.Errorf("wse: nil distribution")
	}
	if p.StackWidth <= 0 {
		return nil, fmt.Errorf("wse: nonpositive stack width %d", p.StackWidth)
	}
	if p.Systems <= 0 {
		return nil, fmt.Errorf("wse: nonpositive system count %d", p.Systems)
	}
	if p.Strategy != Strategy1 && p.Strategy != Strategy2 {
		return nil, fmt.Errorf("wse: unknown strategy %d", p.Strategy)
	}
	d := p.Dist
	nb := d.NB
	sw := p.StackWidth
	rows := d.TotalRankRows()
	chunks, worstRows := d.Chunks(sw)
	t0 := d.TotalNonzeroTiles()
	nzCols := d.NonzeroColumns()
	// chunk-tile incidences: every interior chunk boundary splits a tile
	tileSegments := t0
	if extra := chunks - nzCols; extra > 0 {
		tileSegments += extra
	}
	// worst chunk spans ≈ sw / mean-rank tiles (+1 boundary tile)
	tilesPerChunk := 1
	if mean := d.MeanTileRank(); mean > 0 {
		tilesPerChunk = int(math.Ceil(float64(worstRows)/mean)) + 1
	}

	m := &Metrics{
		NB: nb, StackWidth: sw, Systems: p.Systems, Strategy: p.Strategy,
		TilesPerChunk: tilesPerChunk,
	}

	// Memory traffic (§6.6), summed in closed form over all chunks:
	//   V side: 4 real MVMs of (h×nb) per chunk, Σh = rows
	//   U side: 4 real MVMs per tile segment of (nb×k), Σk = rows
	m.RelativeBytes = 16*(int64(nb)*rows+rows+int64(nb)*chunks) +
		16*(int64(nb)*rows+int64(nb)*tileSegments+rows)
	m.AbsoluteBytes = 16*(3*int64(nb)*rows+int64(nb)*chunks) +
		16*(3*int64(nb)*rows+rows)

	fmacs := 8 * int64(nb) * rows

	switch p.Strategy {
	case Strategy1:
		m.PEsUsed = chunks
		m.WorstCycles = cs2.ChunkCycles(nb, worstRows, tilesPerChunk)
		m.PerPEMatrixBytes = 16 * sw * nb // Vr,Vi,Ur,Ui in FP32
		m.BaseReplication = 1
	case Strategy2:
		m.PEsUsed = 8 * chunks
		v := cs2.VStackCycles(worstRows, nb)
		u := cs2.UStackCycles(nb, worstRows, tilesPerChunk)
		m.WorstCycles = max(v, u)
		m.PerPEMatrixBytes = 4 * sw * nb // one real base per PE
		m.BaseReplication = 2            // each base held by two PEs
	}

	budget := int64(p.Systems) * cs2.UsablePEs
	if m.PEsUsed > budget {
		return nil, fmt.Errorf("wse: %d PEs needed exceed %d available on %d systems",
			m.PEsUsed, budget, p.Systems)
	}
	m.Occupancy = float64(m.PEsUsed) / float64(budget)
	m.RelativeBW = cs2.Bandwidth(m.RelativeBytes, m.WorstCycles)
	m.AbsoluteBW = cs2.Bandwidth(m.AbsoluteBytes, m.WorstCycles)
	m.FlopRate = cs2.FlopRate(fmacs, m.WorstCycles)
	m.TimeSeconds = cs2.Seconds(m.WorstCycles)
	if obs.Enabled() {
		obsWorstCycles.Set(m.WorstCycles)
		obsRelBytes.Set(m.RelativeBytes)
		obsAbsBytes.Set(m.AbsoluteBytes)
		obsPEsUsed.Set(m.PEsUsed)
		obsPerPESRAM.Set(int64(m.PerPEMatrixBytes))
	}
	return m, nil
}

// ParallelEfficiency returns the strong-scaling efficiency of m against a
// baseline run: (baseline time / m time) ÷ (m PEs / baseline PEs).
func ParallelEfficiency(baseline, m *Metrics) float64 {
	if m.TimeSeconds == 0 || baseline.PEsUsed == 0 {
		return 0
	}
	speedup := baseline.TimeSeconds / m.TimeSeconds
	scale := float64(m.PEsUsed) / float64(baseline.PEsUsed)
	if scale == 0 {
		return 0
	}
	return speedup / scale
}

// SyntheticPoint is one tile size of the Fig. 14 synthetic benchmark.
type SyntheticPoint struct {
	N          int
	Cycles     int64
	RelativeBW float64
	AbsoluteBW float64
}

// SyntheticTileSweep models Fig. 14: every usable PE of one CS-2 runs a
// constant-size single-precision N×N MVM; aggregate relative and absolute
// bandwidths are reported for each N.
func SyntheticTileSweep(sizes []int) []SyntheticPoint {
	out := make([]SyntheticPoint, 0, len(sizes))
	for _, n := range sizes {
		cyc := cs2.MVMCycles(n, n)
		out = append(out, SyntheticPoint{
			N:          n,
			Cycles:     cyc,
			RelativeBW: cs2.Bandwidth(cs2.RelativeBytes(n, n), cyc) * cs2.UsablePEs,
			AbsoluteBW: cs2.Bandwidth(cs2.AbsoluteBytes(n, n), cyc) * cs2.UsablePEs,
		})
	}
	return out
}

// PowerReport models §7.6: sustained power and energy efficiency of one
// CS-2 running the worst-case load-balanced shard.
type PowerReport struct {
	Watts          float64
	FlopsPerSystem float64
	GFlopsPerWatt  float64
}

// Power evaluates the power model for one system of the plan.
func (p Plan) Power(m *Metrics) PowerReport {
	activePerSystem := min(int(m.PEsUsed/int64(p.Systems)), cs2.UsablePEs)
	watts := cs2.SystemWatts(activePerSystem)
	flopsPerSystem := m.FlopRate / float64(p.Systems)
	return PowerReport{
		Watts:          watts,
		FlopsPerSystem: flopsPerSystem,
		GFlopsPerWatt:  flopsPerSystem / watts / 1e9,
	}
}
