package tlr

// The frozen benchmark (bench/, pinned by BENCHMARK.json) calls four
// methods of the stacked split-plane layout by name. That layout is
// gone: MulVec and its three siblings are the one resident layout. The
// names stay as forwards to the products they computed until the
// benchmark revision names no layout (ROADMAP 2a(iv)), when they go with
// the other bench-only names (2(b)). Their bench rows (tlr.soa.gbps,
// tlr.soa_adj.gbps, tlr.batched.gbps) now time MulVec and
// MulVecConjTrans.

// EnsureSoA does nothing: there is no second layout to build. Kept only
// because frozen bench/ names it; goes with ROADMAP 2a(iv)/2(b).
func (t *Matrix) EnsureSoA() {}

// MulVecSoA is MulVec. Kept only because frozen bench/ names it; goes
// with ROADMAP 2a(iv)/2(b).
func (t *Matrix) MulVecSoA(x, y []complex64) { t.MulVec(x, y) }

// MulVecConjTransSoA is MulVecConjTrans. Kept only because frozen bench/
// names it; goes with ROADMAP 2a(iv)/2(b).
func (t *Matrix) MulVecConjTransSoA(x, y []complex64) { t.MulVecConjTrans(x, y) }

// MulVecBatched is MulVec; workers is ignored and the error is always
// nil. Kept only because frozen bench/ names it; goes with ROADMAP
// 2a(iv)/2(b).
func (t *Matrix) MulVecBatched(x, y []complex64, _ int) error { t.MulVec(x, y); return nil }
