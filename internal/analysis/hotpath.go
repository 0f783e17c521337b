package analysis

// HotPathSeed pins one kernel-loop function to the allocation-free
// contract. The allocfree analyzer checks seeded functions even when
// their //lint:hotpath marker has been (wrongly) removed — it reports
// the missing marker and a seed whose function no longer exists, so the
// registry cannot silently drift from the code. The Kernel name links
// each seed to the runtime half of the contract: internal/testkit's
// hotpath registry drives testing.AllocsPerRun over the same kernels
// and asserts a zero per-op budget (see hotpath_alloc_test.go there).
type HotPathSeed struct {
	// Pkg is the import-path suffix of the package holding the function.
	Pkg string
	// Func is the function name, "Recv.Name" for methods.
	Func string
	// Kernel is the runtime registry entry (internal/testkit.HotPaths)
	// that exercises this loop under testing.AllocsPerRun.
	Kernel string
}

// HotPathSeeds is the registry of TLR-MVM kernel loops that must stay
// allocation-free: the three-phase product and its adjoint, the batched
// formulation, the batch engine's per-member executor, the MDC
// per-frequency kernels, and the CS-2 PE simulator's chunk program.
// New kernels register here AND in internal/testkit's runtime registry;
// a cross-check test fails if the two diverge.
var HotPathSeeds = []HotPathSeed{
	{Pkg: "internal/tlr", Func: "Matrix.forwardVCol", Kernel: "tlr.mulvec"},
	{Pkg: "internal/tlr", Func: "Matrix.forwardURow", Kernel: "tlr.mulvec"},
	{Pkg: "internal/tlr", Func: "Matrix.adjointURow", Kernel: "tlr.mulvec_adjoint"},
	{Pkg: "internal/tlr", Func: "Matrix.adjointVCol", Kernel: "tlr.mulvec_adjoint"},
	{Pkg: "internal/tlr", Func: "Matrix.MulVecBatched", Kernel: "tlr.mulvec_batched"},
	// the two SoA panel sweeps and the shuffle are shared by every SoA
	// product; each is listed under one of the kernels that drive it
	{Pkg: "internal/tlr", Func: "panels.project", Kernel: "tlr.mulvec_soa"},
	{Pkg: "internal/tlr", Func: "panels.expand", Kernel: "tlr.mulvec_soa_adjoint"},
	{Pkg: "internal/tlr", Func: "shuffle", Kernel: "tlr.mulvec_soa"},
	{Pkg: "internal/tlr", Func: "panels.normal", Kernel: "tlr.mulvec_normal"},
	{Pkg: "internal/batch", Func: "execute", Kernel: "batch.run_soa"},
	{Pkg: "internal/mdc", Func: "DenseKernel.Apply", Kernel: "mdc.kernel_dense"},
	{Pkg: "internal/mdc", Func: "TLRKernel.Apply", Kernel: "mdc.kernel_tlr"},
	{Pkg: "internal/mdc", Func: "TLRKernel.ApplyNormal", Kernel: "mdc.kernel_tlr_normal"},
	{Pkg: "internal/wsesim", Func: "PE.run", Kernel: "wsesim.mulvec"},
	{Pkg: "internal/wsesim", Func: "Machine.MulVec", Kernel: "wsesim.mulvec"},
	{Pkg: "internal/tlr", Func: "Matrix.tileAt", Kernel: "tlr.mulvec_ooc"},
	{Pkg: "internal/opstore", Func: "Cache.Tile", Kernel: "opstore.tile_hit"},
}

// seedsForPath returns the seeds targeting the given package path.
func seedsForPath(path string) []HotPathSeed {
	var out []HotPathSeed
	for _, s := range HotPathSeeds {
		if pathMatches(path, s.Pkg) {
			out = append(out, s)
		}
	}
	return out
}
