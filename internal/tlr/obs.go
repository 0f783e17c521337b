package tlr

import "repro/internal/obs"

// Stage metrics for the TLR-MVM hot paths (§5, Figs. 5–7) and the
// compression front end. Registered once at package init; every
// recording site is guarded inside obs, so the paths cost one atomic
// load each when collection is disabled.
var (
	obsCompress = obs.NewTimer("tlr.compress")
	obsMVM      = obs.NewTimer("tlr.mvm")
	obsMVMMeter = obs.NewMeter("tlr.mvm")
	obsAdjoint  = obs.NewTimer("tlr.mvm_adjoint")
	obsAdjMeter = obs.NewMeter("tlr.mvm_adjoint")
	obsBatched  = obs.NewTimer("tlr.mvm_batched")
	obsBatMeter = obs.NewMeter("tlr.mvm_batched")

	obsSoABuild    = obs.NewTimer("tlr.soa.build")
	obsSoA         = obs.NewTimer("tlr.mvm_soa")
	obsSoAMeter    = obs.NewMeter("tlr.mvm_soa")
	obsSoAAdj      = obs.NewTimer("tlr.mvm_soa_adjoint")
	obsSoAAdjMeter = obs.NewMeter("tlr.mvm_soa_adjoint")
	obsNormal      = obs.NewTimer("tlr.mvm_normal")
	obsNormalMeter = obs.NewMeter("tlr.mvm_normal")
	obsStep        = obs.NewTimer("tlr.mvm_step")
	obsStepMeter   = obs.NewMeter("tlr.mvm_step")
)

// FlopCount returns the floating-point operations of one forward (or
// adjoint) TLR-MVM: each tile contributes k·(rows+cols) complex MACs and
// a complex MAC is 8 real flops — the flop convention behind the paper's
// PFlop/s figures (§6.6). Like CompressedBytes it reads the rank map
// only: meterMVM calls it on every product while collection is on, and
// walking Tile(i,j) there would fault a store-backed operator's whole
// tile set through the cache once per product.
func (t *Matrix) FlopCount() int64 {
	var macs int64
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			macs += int64(t.rankAt(i*t.NT+j)) * int64(t.tileRows(i)+t.tileCols(j))
		}
	}
	return 8 * macs
}

// ByteCount returns the "relative" memory traffic of one TLR-MVM in the
// §6.6 sense: every base read once, x read once, the yv intermediate
// written and re-read, and y written once (8 bytes per complex64).
func (t *Matrix) ByteCount() int64 {
	return t.CompressedBytes() + 8*int64(t.N+t.M+2*t.TotalRank())
}

// meterMVM publishes one product's work volume; the flop/byte walks over
// the rank map only run while collection is on.
func meterMVM(m *obs.Meter, t *Matrix) {
	if obs.Enabled() {
		m.Add(t.FlopCount(), t.ByteCount())
	}
}

// meterFused publishes one row-fused sweep (MulVecStep, MulVecNormal):
// two products' flops, but the traffic an in-memory sweep streams — every
// base once (a row's adjoint half rereads its tiles from cache) and the
// given count of complex64 vector elements.
func meterFused(m *obs.Meter, t *Matrix, vecElems int) {
	if obs.Enabled() {
		m.Add(2*t.FlopCount(), t.CompressedBytes()+8*int64(vecElems))
	}
}
