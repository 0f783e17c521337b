// Package bsp models the generic three-phase TLR-MVM mapping the paper's
// earlier Graphcore IPU port used (§5.3): a V-batch phase over tile
// columns, a memory-shuffle phase that projects the intermediate yv vector
// from the V (column) ordering to the U (row) ordering across the fabric
// under a Bulk Synchronous Parallel schedule, and a U-batch phase over
// tile rows. Comparing its modelled cycle count against the
// communication-avoiding layout of package wse quantifies the design
// choice the paper makes for the CS-2: remove the shuffle entirely and pay
// with extra local-SRAM y traffic instead.
package bsp

import (
	"fmt"

	"repro/internal/cs2"
	"repro/internal/ranks"
)

// Fabric describes the inter-PE interconnect of a BSP execution.
type Fabric struct {
	// BytesPerCycle is the per-PE fabric injection bandwidth (the CS-2
	// fabric moves one 32-bit wavelet per cycle per direction; we model
	// 4 B/cycle sustained).
	BytesPerCycle float64
	// BarrierCycles is the cost of one BSP synchronization across the
	// deployment — the wafer-diagonal hop latency the Graphcore schedule
	// pays before and after the shuffle.
	BarrierCycles int64
}

// DefaultFabric returns fabric parameters for a CS-2-scale wafer: 4 B per
// cycle injection and a barrier spanning the 757×996 fabric diagonal.
func DefaultFabric() Fabric {
	return Fabric{BytesPerCycle: 4, BarrierCycles: 757 + 996}
}

// Phases breaks down the three-phase schedule's modelled cycles.
type Phases struct {
	VBatch  int64
	Shuffle int64
	UBatch  int64
	// Barriers is the BSP synchronization overhead (two barriers: before
	// and after the shuffle).
	Barriers int64
}

// Total returns the end-to-end cycle count.
func (p Phases) Total() int64 { return p.VBatch + p.Shuffle + p.UBatch + p.Barriers }

// shuffleFraction returns the share of time spent in the shuffle phase
// and its barriers — the overhead the communication-avoiding layout
// removes.
func (p Phases) shuffleFraction() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.Shuffle+p.Barriers) / float64(t)
}

// threePhase models the generic TLR-MVM on a BSP machine at the given
// stack width: each PE executes the four real V MVMs of its chunk, waits
// on a barrier, exchanges its yv slice across the fabric (every complex
// element leaves its producer and enters its consumer), waits again, and
// executes the four real U MVMs.
func threePhase(d *ranks.Distribution, sw int, f Fabric) (Phases, error) {
	if sw <= 0 {
		return Phases{}, fmt.Errorf("bsp: nonpositive stack width %d", sw)
	}
	if f.BytesPerCycle <= 0 {
		return Phases{}, fmt.Errorf("bsp: nonpositive fabric bandwidth")
	}
	_, worstRows := d.Chunks(sw)
	nb := d.NB
	var p Phases
	// V phase: four real MVMs of (sw × nb) on the worst PE
	p.VBatch = 4 * cs2.VStackCycles(worstRows, nb)
	// U phase: in the row-major layout the U batch is a single contiguous
	// (nb × sw) sweep — no per-tile y swapping, that is the shuffle's job
	p.UBatch = 4 * cs2.UStackCycles(nb, worstRows, 1)
	// Shuffle: the worst PE sends its sw complex yv elements (Re and Im
	// planes, 8 B each) and receives as many for the U phase
	shuffleBytes := float64(2 * 8 * worstRows)
	p.Shuffle = int64(shuffleBytes / f.BytesPerCycle)
	p.Barriers = 2 * f.BarrierCycles
	return p, nil
}

// commAvoiding returns the communication-avoiding worst-chunk cycles for
// the same layout (the §5.3 design), for side-by-side comparison: the
// shuffle and barriers disappear, and the U phase pays the per-tile local
// y traffic instead.
func commAvoiding(d *ranks.Distribution, sw int) (int64, error) {
	if sw <= 0 {
		return 0, fmt.Errorf("bsp: nonpositive stack width %d", sw)
	}
	_, worstRows := d.Chunks(sw)
	tiles := 1
	if mean := d.MeanTileRank(); mean > 0 {
		tiles = int(float64(worstRows)/mean) + 1
	}
	return cs2.ChunkCycles(d.NB, worstRows, tiles), nil
}

// Comparison reports both schedules on one configuration.
type Comparison struct {
	StackWidth   int
	ThreePhase   Phases
	CommAvoiding int64
	Speedup      float64
	ShuffleShare float64
}

// Compare evaluates both schedules.
func Compare(d *ranks.Distribution, sw int, f Fabric) (*Comparison, error) {
	tp, err := threePhase(d, sw, f)
	if err != nil {
		return nil, err
	}
	ca, err := commAvoiding(d, sw)
	if err != nil {
		return nil, err
	}
	c := &Comparison{
		StackWidth:   sw,
		ThreePhase:   tp,
		CommAvoiding: ca,
		ShuffleShare: tp.shuffleFraction(),
	}
	if ca > 0 {
		c.Speedup = float64(tp.Total()) / float64(ca)
	}
	return c, nil
}
