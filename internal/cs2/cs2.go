// Package cs2 models the Cerebras CS-2 Wafer Scale Engine at the level the
// paper's own performance-modelling tool operates (§6.5): a grid of
// processing elements, each with 48 kB of banked single-cycle SRAM and an
// FMAC datapath sustaining two 64-bit reads and one 64-bit write per cycle
// (reads from distinct banks), clocked at 850 MHz. The model predicts the
// cycle count and memory traffic of the batched real MVMs that implement
// the complex TLR-MVM (§6.6), from which the paper's relative and absolute
// bandwidth metrics follow.
//
// The paper validates this modelling approach against hardware ("reliable
// estimates of performance on the CS-2"); our reproduction substitutes the
// same style of model for the machines we do not have.
package cs2

// The one machine the paper models (§6.5).
const (
	// GridX, GridY is the full PE fabric (757×996).
	GridX, GridY = 757, 996
	// UsableX, UsableY is the programmable region; the remaining PEs route
	// data on and off the wafer (750×994, §6.5).
	UsableX, UsableY = 750, 994
	// UsablePEs is the per-system programmable PE count (745,500).
	UsablePEs = UsableX * UsableY
	// ClockHz is the PE clock (850 MHz).
	ClockHz = 850e6
	// SRAMBytes is the per-PE memory (48 kB).
	SRAMBytes = 48 * 1024
	// NumBanks and BankBytes describe the SRAM banking (8 × 6 kB); two
	// same-cycle reads must target distinct banks, which forces the
	// alignment/padding wsesim's bank planner accounts for.
	NumBanks  = 8
	BankBytes = 6 * 1024
)

// Cycle-model coefficients for a single real FP32 MVM y += A·x with A m×n
// resident in PE SRAM. Each fmac performs two reads (a_ij and y_i, distinct
// banks) and one write (y_i); the sustained rate calibrated against the
// paper's Table 2 worst-cycle counts is CyclesPerFMAC = 1.4, with a
// per-column setup cost (load x_j, reset pointers) and a per-MVM launch
// cost (descriptor setup, loop prologue).
const (
	// CyclesPerFMAC is the sustained per-element cost of the inner loop.
	CyclesPerFMAC = 1.4
	// CyclesPerColumn covers per-column setup of the column-major sweep.
	CyclesPerColumn = 4
	// CyclesPerMVM covers kernel launch and DSR configuration.
	CyclesPerMVM = 40
	// CyclesPerTile covers switching the output y block between the
	// consecutive tiles of a U-stack chunk (Fig. 9's "multiple y vectors
	// in and out" of local SRAM).
	CyclesPerTile = 8
)

// MVMCycles returns the modelled cycle count of one real m×n MVM on one PE.
func MVMCycles(m, n int) int64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	return int64(CyclesPerFMAC*float64(m)*float64(n)) + CyclesPerColumn*int64(n) + CyclesPerMVM
}

// RelativeBytes returns the paper's "relative" memory-access count for one
// real FP32 m×n MVM: x read once and cached, A read once, y written once —
// 4·(m·n + m + n) bytes (§6.6).
func RelativeBytes(m, n int) int64 {
	return 4 * (int64(m)*int64(n) + int64(m) + int64(n))
}

// AbsoluteBytes returns the paper's "absolute" count on the cache-less
// CS-2: per column, y is read, incremented and written back —
// 4·(3·m·n + n) bytes (§6.6).
func AbsoluteBytes(m, n int) int64 {
	return 4 * (3*int64(m)*int64(n) + int64(n))
}

// FMACs returns the fused multiply-add count of one real m×n MVM.
func FMACs(m, n int) int64 { return int64(m) * int64(n) }

// VStackCycles models one real MVM of the V phase on a stack-width chunk:
// a dense sw×nb product into a contiguous yv segment.
func VStackCycles(sw, nb int) int64 { return MVMCycles(sw, nb) }

// UStackCycles models one real MVM of the U phase on a chunk that spans
// `tiles` tile blocks: the nb×sw product is interrupted once per tile to
// swap the partial y vector in and out of SRAM.
func UStackCycles(nb, sw, tiles int) int64 {
	if nb <= 0 || sw <= 0 {
		return 0
	}
	if tiles < 1 {
		tiles = 1
	}
	return int64(CyclesPerFMAC*float64(nb)*float64(sw)) +
		CyclesPerColumn*int64(sw) + CyclesPerMVM + CyclesPerTile*int64(tiles)
}

// ChunkCycles models strong-scaling strategy 1 (§6.7): all eight real MVMs
// of a chunk — four V-phase (sw×nb) and four U-phase (nb×sw across
// `tiles` blocks) — execute back to back on a single PE.
func ChunkCycles(nb, sw, tiles int) int64 {
	return 4*VStackCycles(sw, nb) + 4*UStackCycles(nb, sw, tiles)
}

// Seconds converts a cycle count to wall time.
func Seconds(cycles int64) float64 {
	return float64(cycles) / ClockHz
}

// Bandwidth returns bytes/second given total bytes moved and the worst
// cycle count across all PEs — the paper's aggregation rule (§6.5: "we
// report the sustained bandwidth based on the worst cycle count across all
// PEs on all systems").
func Bandwidth(totalBytes int64, worstCycles int64) float64 {
	if worstCycles <= 0 {
		return 0
	}
	return float64(totalBytes) * ClockHz / float64(worstCycles)
}

// FlopRate returns flop/s given total FMAC count (2 flops each) and the
// worst cycle count.
func FlopRate(totalFMACs int64, worstCycles int64) float64 {
	if worstCycles <= 0 {
		return 0
	}
	return 2 * float64(totalFMACs) * ClockHz / float64(worstCycles)
}

// The power model of one CS-2 running the TLR-MVM workload, calibrated to
// the paper's §7.6 observation of 16 kW on a fully-occupied wafer
// (compared with 23 kW for communication-heavy stencil workloads — our
// workload has no inter-PE fabric traffic).
const (
	// IdleWatts is the base system draw (host, fans, fabric idle).
	IdleWatts = 6500
	// ActiveWattsPerPE is the incremental draw of a PE streaming FMACs.
	ActiveWattsPerPE = 0.01275
)

// SystemWatts returns the draw of one system with the given number of
// active PEs.
func SystemWatts(activePEs int) float64 {
	return IdleWatts + ActiveWattsPerPE*float64(activePEs)
}
