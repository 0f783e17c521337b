// Package wsesim is a functional simulator of the communication-avoiding
// TLR-MVM layout of §5.3 (Fig. 9) on a Cerebras-style PE grid. Where
// package wse predicts performance analytically, wsesim actually builds
// the per-PE SRAM images — the four real-valued base arrays of each
// stack-width chunk, bank-assigned and padded per §6.5 — executes the
// eight real MVMs on every simulated PE, performs the host-side reduction,
// and returns the numerical result, which must match the reference
// TLR-MVM bit-for-bit up to float summation order.
//
// It also meters the actual memory accesses each PE performs, which ties
// the analytic "absolute bytes" formula of §6.6 to executed behaviour.
package wsesim

import (
	"fmt"

	"repro/internal/cfloat"
	"repro/internal/cs2"
	"repro/internal/obs"
	"repro/internal/tlr"
)

// Simulator metrics: the per-PE access meters and the §6.5/§6.7 model
// outputs, surfaced through the shared obs registry so bench tooling sees
// them next to the host-side stage timers instead of digging through
// Machine fields.
var (
	obsMulVec     = obs.NewTimer("wsesim.mulvec")
	obsMeter      = obs.NewMeter("wsesim.mulvec")
	obsPEs        = obs.NewGauge("wsesim.pes")
	obsCycles     = obs.NewGauge("wsesim.model_cycles")
	obsWorstSRAM  = obs.NewGauge("wsesim.worst_sram_bytes")
	obsStackWidth = obs.NewGauge("wsesim.stack_width")
)

// Chunk is a stack-width slice of one tile column's stacked bases: rows
// [Row0, Row0+Rows) of the V stack (and the matching columns of the
// side-by-side U stack).
type Chunk struct {
	// Col is the tile column index.
	Col int
	// Row0 is the first stacked rank-row of the chunk.
	Row0 int
	// Rows is the chunk height (≤ the plan's stack width).
	Rows int
	// Segments lists the tile blocks the chunk intersects.
	Segments []Segment
}

// Segment is the part of one tile that falls inside a chunk.
type Segment struct {
	// TileRow is the tile's row index i.
	TileRow int
	// K0 is the first rank index of the tile covered by this segment.
	K0 int
	// K is the number of rank rows covered.
	K int
}

// PE is one simulated processing element: its SRAM image (the four real
// base arrays of its chunk) plus access meters.
type PE struct {
	Chunk Chunk
	// ColExtent is the tile column's width (nb, or less at the edge).
	ColExtent int
	// vr, vi hold the chunk's V rows (Rows × ColExtent, column-major
	// as stored for the fmac sweep); ur, ui hold the U columns
	// (per-segment tiles, row extent = tile's row extent).
	vr, vi []float32
	ur, ui [][]float32 // one array per segment, rowExtent × K
	rowExt []int       // row extent of each segment's tile
	// Meter counts executed memory traffic in bytes.
	Meter Meter
	// Split-plane scratch of the chunk program, sized once at load time
	// (x planes: ColExtent; yv planes: Rows; y planes: the largest
	// segment row extent) so run performs no allocations. These model
	// the PE's resident working buffers — sramBytes already accounts
	// for them.
	sXr, sXi         []float32
	sYvr, sYvi, sTmp []float32
	sYr, sYi         []float32
}

// Meter tallies executed SRAM traffic.
type Meter struct {
	// Reads and Writes are in bytes.
	Reads, Writes int64
	// FMACs counts fused multiply-adds.
	FMACs int64
}

// Bytes returns total traffic.
func (m Meter) Bytes() int64 { return m.Reads + m.Writes }

// Machine is the simulated deployment: the chunk plan for one TLR matrix
// at one stack width, mapped one chunk per PE (strategy 1).
type Machine struct {
	T   *tlr.Matrix
	SW  int
	PEs []*PE
}

// Build partitions the TLR matrix into stack-width chunks and loads one PE
// per chunk with its SRAM image. It fails if any PE image exceeds the
// CS-2's 48 kB of SRAM.
func Build(t *tlr.Matrix, sw int) (*Machine, error) {
	if sw <= 0 {
		return nil, fmt.Errorf("wsesim: nonpositive stack width %d", sw)
	}
	m := &Machine{T: t, SW: sw}
	for j := 0; j < t.NT; j++ {
		colExt := min((j+1)*t.NB, t.N) - j*t.NB
		// enumerate the column's rank rows tile by tile
		type tileSpan struct {
			i, k int
		}
		var spans []tileSpan
		total := 0
		for i := 0; i < t.MT; i++ {
			k := t.Tile(i, j).Rank()
			spans = append(spans, tileSpan{i, k})
			total += k
		}
		for row0 := 0; row0 < total; row0 += sw {
			rows := min(sw, total-row0)
			ch := Chunk{Col: j, Row0: row0, Rows: rows}
			// find intersecting tile segments
			base := 0
			for _, sp := range spans {
				lo := max(row0, base)
				hi := min(row0+rows, base+sp.k)
				if lo < hi {
					ch.Segments = append(ch.Segments, Segment{
						TileRow: sp.i, K0: lo - base, K: hi - lo,
					})
				}
				base += sp.k
			}
			pe, err := m.loadPE(ch, colExt)
			if err != nil {
				return nil, err
			}
			m.PEs = append(m.PEs, pe)
		}
	}
	if obs.Enabled() {
		obsPEs.Set(int64(m.NumPEs()))
		obsCycles.Set(m.ModelCycles())
		obsWorstSRAM.Set(int64(m.WorstSRAM()))
		obsStackWidth.Set(int64(sw))
	}
	return m, nil
}

// loadPE builds the SRAM image of one chunk.
func (m *Machine) loadPE(ch Chunk, colExt int) (*PE, error) {
	t := m.T
	pe := &PE{Chunk: ch, ColExtent: colExt}
	// V chunk: rows of the stacked Vᴴ sweep. V_{ij} is (colExt × k); its
	// conjugate-transpose rows are the stacked rank rows. Store the chunk
	// as (Rows × colExt) column-major so the fmac sweep walks unit-stride.
	pe.vr = make([]float32, ch.Rows*colExt)
	pe.vi = make([]float32, ch.Rows*colExt)
	r := 0
	for _, seg := range ch.Segments {
		tile := t.Tile(seg.TileRow, ch.Col)
		for k := seg.K0; k < seg.K0+seg.K; k++ {
			vcol := tile.V.Col(k) // length colExt
			for c := 0; c < colExt; c++ {
				// row r of Vᴴ = conj(V[:,k])ᵀ
				pe.vr[c*ch.Rows+r] = real(vcol[c])
				pe.vi[c*ch.Rows+r] = -imag(vcol[c])
			}
			r++
		}
	}
	// U segments: for each intersected tile, the K columns of U it
	// contributes (rowExt × K), column-major.
	for _, seg := range ch.Segments {
		tile := t.Tile(seg.TileRow, ch.Col)
		rowExt := tile.U.Rows
		ur := make([]float32, rowExt*seg.K)
		ui := make([]float32, rowExt*seg.K)
		for kk := 0; kk < seg.K; kk++ {
			ucol := tile.U.Col(seg.K0 + kk)
			for rr := 0; rr < rowExt; rr++ {
				ur[kk*rowExt+rr] = real(ucol[rr])
				ui[kk*rowExt+rr] = imag(ucol[rr])
			}
		}
		pe.ur = append(pe.ur, ur)
		pe.ui = append(pe.ui, ui)
		pe.rowExt = append(pe.rowExt, rowExt)
	}
	// working buffers for the chunk program (the x/yv/y vectors the
	// SRAM accounting already includes)
	pe.sXr = make([]float32, colExt)
	pe.sXi = make([]float32, colExt)
	pe.sYvr = make([]float32, ch.Rows)
	pe.sYvi = make([]float32, ch.Rows)
	pe.sTmp = make([]float32, ch.Rows)
	maxExt := 0
	for _, re := range pe.rowExt {
		if re > maxExt {
			maxExt = re
		}
	}
	pe.sYr = make([]float32, maxExt)
	pe.sYi = make([]float32, maxExt)
	if sram := pe.sramBytes(); sram > cs2.SRAMBytes {
		return nil, fmt.Errorf("wsesim: chunk (col %d, row %d) needs %d B of SRAM (PE has %d)",
			ch.Col, ch.Row0, sram, cs2.SRAMBytes)
	}
	return pe, nil
}

// sramBytes returns the PE's resident image size: the four real base
// arrays plus the x, yv, and per-tile y vectors, each padded to the
// CS-2's 64-bit access granularity (§6.5's alignment rule).
func (pe *PE) sramBytes() int {
	pad := func(n int) int { return 4 * ((n + 1) &^ 1) } // float32s, 8-byte aligned
	b := pad(len(pe.vr)) + pad(len(pe.vi))
	for i := range pe.ur {
		b += pad(len(pe.ur[i])) + pad(len(pe.ui[i]))
	}
	// x (colExt complex), yv (Rows complex), one y partial per segment
	b += pad(2 * pe.ColExtent)
	b += pad(2 * pe.Chunk.Rows)
	for _, re := range pe.rowExt {
		b += pad(2 * re)
	}
	return b
}

// run executes the PE's eight real MVMs against the input block x (the
// tile column's slice of the global x) and accumulates each segment's
// partial output directly into the global y (tile grid size nb). All
// intermediates live in the PE's preallocated scratch planes.
// Registered hot path — the chunk program must stay allocation-free.
func (pe *PE) run(x []complex64, y []complex64, nb int) {
	n := pe.ColExtent
	rows := pe.Chunk.Rows
	xr, xi := pe.sXr[:n], pe.sXi[:n]
	cfloat.SplitReIm(x[:n], xr, xi)

	// V phase: yv = Vᴴ_chunk · x as four real MVMs (§6.6):
	//   Re(yv) = Vr·xr − Vi·xi ; Im(yv) = Vr·xi + Vi·xr
	yvr, yvi, tmp := pe.sYvr[:rows], pe.sYvi[:rows], pe.sTmp[:rows]
	for i := 0; i < rows; i++ {
		yvr[i], yvi[i], tmp[i] = 0, 0, 0
	}
	cfloat.RealGemv(rows, n, pe.vr, rows, xr, yvr)
	pe.meterMVM(rows, n)
	cfloat.RealGemv(rows, n, pe.vi, rows, xi, tmp)
	pe.meterMVM(rows, n)
	for i := range yvr {
		yvr[i] -= tmp[i]
		tmp[i] = 0
	}
	// Im(yv) = Vr·xi + Vi·xr accumulates across two gemvs into yvi.
	cfloat.RealGemv(rows, n, pe.vr, rows, xi, yvi)
	pe.meterMVM(rows, n)
	cfloat.RealGemv(rows, n, pe.vi, rows, xr, yvi)
	pe.meterMVM(rows, n)

	// U phase: per segment, y_seg = U_seg · yv_seg via four real MVMs,
	// reduced into the global output as the host would.
	off := 0
	for s := range pe.ur {
		rowExt := pe.rowExt[s]
		k := len(pe.ur[s]) / rowExt
		svr := yvr[off : off+k]
		svi := yvi[off : off+k]
		yr, yi := pe.sYr[:rowExt], pe.sYi[:rowExt]
		for i := 0; i < rowExt; i++ {
			yr[i], yi[i] = 0, 0
		}
		cfloat.RealGemv(rowExt, k, pe.ur[s], rowExt, svr, yr)
		pe.meterMVM(rowExt, k)
		cfloat.RealGemv(rowExt, k, pe.ui[s], rowExt, svi, yi)
		pe.meterMVM(rowExt, k)
		for i := range yr {
			yr[i] -= yi[i]
			yi[i] = 0
		}
		cfloat.RealGemv(rowExt, k, pe.ur[s], rowExt, svi, yi)
		pe.meterMVM(rowExt, k)
		cfloat.RealGemv(rowExt, k, pe.ui[s], rowExt, svr, yi)
		pe.meterMVM(rowExt, k)
		dst := y[pe.Chunk.Segments[s].TileRow*nb:]
		for i := 0; i < rowExt; i++ {
			dst[i] += complex(yr[i], yi[i])
		}
		off += k
	}
}

// meterMVM records the absolute traffic of one real m×n MVM: per column,
// y is read, updated and written back, the column of A is read, and x_j
// is read once (§6.6's absolute counting).
func (pe *PE) meterMVM(mm, nn int) {
	pe.Meter.Reads += int64(4 * (2*mm*nn + nn))
	pe.Meter.Writes += int64(4 * mm * nn)
	pe.Meter.FMACs += int64(mm) * int64(nn)
}

// MulVec executes the full machine: every PE runs its chunk program,
// accumulating its per-tile partial outputs into y = A x as the host
// reduction would. Registered hot path — one call per simulated
// product, allocation-free in steady state.
func (m *Machine) MulVec(x, y []complex64) {
	t := m.T
	if len(x) < t.N || len(y) < t.M {
		panic("wsesim: MulVec vector too short")
	}
	defer obsMulVec.Start().End()
	var before Meter
	metered := obs.Enabled()
	if metered {
		before = m.TotalMeter()
	}
	for i := 0; i < t.M; i++ {
		y[i] = 0
	}
	for _, pe := range m.PEs {
		j := pe.Chunk.Col
		xj := x[j*t.NB : j*t.NB+pe.ColExtent]
		pe.run(xj, y, t.NB)
	}
	if metered {
		after := m.TotalMeter()
		// a real fmac is 2 flops; traffic is the executed §6.6 bytes
		obsMeter.Add(2*(after.FMACs-before.FMACs), after.Bytes()-before.Bytes())
	}
}

// TotalMeter sums all PE meters.
func (m *Machine) TotalMeter() Meter {
	var tot Meter
	for _, pe := range m.PEs {
		tot.Reads += pe.Meter.Reads
		tot.Writes += pe.Meter.Writes
		tot.FMACs += pe.Meter.FMACs
	}
	return tot
}

// NumPEs returns the number of PEs the layout occupies.
func (m *Machine) NumPEs() int { return len(m.PEs) }

// WorstSRAM returns the largest PE image in bytes.
func (m *Machine) WorstSRAM() int {
	var w int
	for _, pe := range m.PEs {
		if s := pe.sramBytes(); s > w {
			w = s
		}
	}
	return w
}

// ModelCycles returns the analytic worst-chunk cycle count for this
// layout, connecting the functional simulation to the package wse model.
func (m *Machine) ModelCycles() int64 {
	var worst int64
	for _, pe := range m.PEs {
		c := cs2.ChunkCycles(m.T.NB, pe.Chunk.Rows, len(pe.Chunk.Segments))
		if c > worst {
			worst = c
		}
	}
	return worst
}

// Strategy2Stats reports the §6.7 strategy-2 deployment of this layout:
// the eight real MVMs of every chunk scatter onto eight PEs, so the PE
// count is octupled, each PE holds a single real base plane (one quarter
// of the chunk's matrix bytes, doubling total base storage since each
// plane is held by two PEs), and the critical path is the slowest single
// real MVM instead of the whole chunk program.
type Strategy2Stats struct {
	PEs              int
	WorstCycles      int64
	WorstPESRAMBytes int
	BaseReplication  float64
}

// Strategy2 computes the stats for the machine's chunk layout.
func (m *Machine) Strategy2() Strategy2Stats {
	var s Strategy2Stats
	s.PEs = 8 * len(m.PEs)
	s.BaseReplication = 2
	for _, pe := range m.PEs {
		v := cs2.VStackCycles(pe.Chunk.Rows, pe.ColExtent)
		u := cs2.UStackCycles(pe.ColExtent, pe.Chunk.Rows, len(pe.Chunk.Segments))
		if v > s.WorstCycles {
			s.WorstCycles = v
		}
		if u > s.WorstCycles {
			s.WorstCycles = u
		}
		// one real plane of either V or U: a quarter of the four-plane set
		if q := pe.sramBytes() / 4; q > s.WorstPESRAMBytes {
			s.WorstPESRAMBytes = q
		}
	}
	return s
}
