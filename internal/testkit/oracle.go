package testkit

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/cfloat"
	"repro/internal/cs2"
	"repro/internal/dense"
	"repro/internal/mdc"
	"repro/internal/opstore"
	"repro/internal/precision"
	"repro/internal/tlr"
	"repro/internal/tlrio"
	"repro/internal/wsesim"
)

// Impl is one implementation under differential test: a way of computing
// y = A x (and optionally y = Aᴴ x) that must agree with the dense
// reference within Tol and with the sequential TLR reference within
// PairTol (0 skips the pairwise check).
type Impl struct {
	Name    string
	Apply   func(x, y []complex64) error
	Adjoint func(x, y []complex64) // nil when the path has no adjoint
	Tol     float64
	PairTol float64
}

// Config parameterizes an oracle case.
type Config struct {
	// TLROpts drives the compression every compressed implementation
	// shares (NB and Tol are the paper's nb and acc).
	TLROpts tlr.Options
	// Format, when not FP32, adds a reduced-precision-storage
	// implementation with a format-derived tolerance.
	Format precision.Format
	// StackWidth is the wsesim chunk height (0 = NB).
	StackWidth int
	// Workers bounds parallel implementations (0 = GOMAXPROCS).
	Workers int
}

// Oracle runs one (matrix, tolerance, precision) case through every
// implementation of the TLR-MVM stack and asserts agreement plus
// hardware-model invariants. Implementations covered: dense MVM (the
// reference), the sequential TLR-MVM, the MDC frequency
// operator over both dense and TLR kernels, the wsesim functional PE
// simulation, and (optionally) the reduced-precision quantized operator.
type Oracle struct {
	A     *dense.Matrix
	T     *tlr.Matrix
	Cfg   Config
	Impls []Impl

	machine *wsesim.Machine
	// perMulFMACs / perMulBytes are the §6.6 absolute per-product costs
	// predicted from the chunk plan; the executed meters must match.
	perMulFMACs int64
	perMulBytes int64
	wsesimMuls  int64

	// oocT is the same operator round-tripped through the paged on-disk
	// format and served out-of-core through a byte-budgeted tile cache;
	// qT/oocQ are the reduced-precision twin pair when Cfg.Format asks
	// for one. The invariants hold each store-backed product to 0 ULPs
	// of its in-memory twin.
	oocT *tlr.Matrix
	qT   *tlr.Matrix
	oocQ *tlr.Matrix
}

// New compresses a with cfg.TLROpts and assembles the implementation set.
func New(a *dense.Matrix, cfg Config) (*Oracle, error) {
	t, err := tlr.Compress(a, cfg.TLROpts)
	if err != nil {
		return nil, fmt.Errorf("testkit: compressing oracle matrix: %w", err)
	}
	o := &Oracle{A: a, T: t, Cfg: cfg}
	n := a.Cols
	acc := cfg.TLROpts.Tol
	compTol := MVMTolerance(n, acc, precision.FP32)
	pairTol := ExecTolerance(n)
	workers := cfg.Workers
	if workers == 0 {
		workers = 4
	}

	o.Impls = append(o.Impls, Impl{
		Name: "tlr",
		Apply: func(x, y []complex64) error {
			t.MulVec(x, y)
			return nil
		},
		Adjoint: t.MulVecConjTrans,
		Tol:     compTol,
	})

	// MDC operator with a single-frequency dense kernel: must reproduce
	// the dense reference up to execution-order rounding.
	dk, err := mdc.NewDenseKernel([]*dense.Matrix{a})
	if err != nil {
		return nil, err
	}
	denseOp := &mdc.FreqOperator{K: dk, Workers: workers}
	o.Impls = append(o.Impls, Impl{
		Name: "mdc-dense",
		Apply: func(x, y []complex64) error {
			denseOp.Apply(x, y)
			return nil
		},
		Adjoint: denseOp.ApplyAdjoint,
		Tol:     pairTol,
	})
	// The per-frequency kernel primitives, exercised directly rather than
	// through FreqOperator, so the kernel layer itself stays under
	// differential coverage.
	o.Impls = append(o.Impls, Impl{
		Name: "mdc-kernel-dense",
		Apply: func(x, y []complex64) error {
			dk.Apply(0, x, y)
			return nil
		},
		Adjoint: func(x, y []complex64) { dk.ApplyAdjoint(0, x, y) },
		Tol:     pairTol,
	})
	// MDC operator with the TLR kernel: the paper's configuration.
	tk := &mdc.TLRKernel{Mats: []*tlr.Matrix{t}}
	tlrOp := &mdc.FreqOperator{K: tk, Workers: workers}
	o.Impls = append(o.Impls, Impl{
		Name: "mdc-tlr",
		Apply: func(x, y []complex64) error {
			tlrOp.Apply(x, y)
			return nil
		},
		Adjoint: tlrOp.ApplyAdjoint,
		Tol:     compTol,
		PairTol: pairTol,
	})
	o.Impls = append(o.Impls, Impl{
		Name: "mdc-kernel-tlr",
		Apply: func(x, y []complex64) error {
			tk.Apply(0, x, y)
			return nil
		},
		Adjoint: func(x, y []complex64) { tk.ApplyAdjoint(0, x, y) },
		Tol:     compTol,
		PairTol: pairTol,
	})
	// The sharded multi-system execution path: the same TLR kernel fanned
	// out over simulated CS-2 shards with failover enabled — the
	// fallible route. Shard assignment must not perturb the numbers, so
	// it shares the TLR tolerances.
	shardedOp, err := mdc.NewShardedFreqOperator(tk, 0, 3)
	if err != nil {
		return nil, fmt.Errorf("testkit: building sharded operator: %w", err)
	}
	o.Impls = append(o.Impls, Impl{
		Name:  "mdc-sharded",
		Apply: shardedOp.Apply,
		Adjoint: func(x, y []complex64) {
			if err := shardedOp.ApplyAdjoint(x, y); err != nil {
				panic(err)
			}
		},
		Tol:     compTol,
		PairTol: pairTol,
	})

	// wsesim: the functional CS-2 PE simulation of the same TLR matrix.
	sw := cfg.StackWidth
	if sw <= 0 {
		sw = cfg.TLROpts.NB
	}
	machine, err := wsesim.Build(t, sw)
	if err != nil {
		return nil, fmt.Errorf("testkit: building wsesim machine: %w", err)
	}
	o.machine = machine
	o.perMulFMACs, o.perMulBytes = predictPerMul(machine)
	o.Impls = append(o.Impls, Impl{
		Name: "wsesim",
		Apply: func(x, y []complex64) error {
			machine.MulVec(x, y)
			o.wsesimMuls++
			return nil
		},
		Tol:     compTol,
		PairTol: pairTol,
	})

	if cfg.Format != precision.FP32 {
		q, err := precision.Quantize(t, precision.Uniform{F: cfg.Format})
		if err != nil {
			return nil, err
		}
		o.qT = q.T
		qTol := MVMTolerance(n, acc, cfg.Format)
		o.Impls = append(o.Impls, Impl{
			Name: "precision-" + cfg.Format.String(),
			Apply: func(x, y []complex64) error {
				q.T.MulVec(x, y)
				return nil
			},
			Adjoint: q.T.MulVecConjTrans,
			Tol:     qTol,
			PairTol: qTol,
		})
	}

	// The out-of-core store: the operator paged onto a (here in-memory)
	// CRC-checked tile store and served back through the byte-budgeted
	// tile cache — the configuration paper-scale operators run in. The
	// budget is half the compressed footprint, so a full product admits
	// part of the operator and streams the rest; fp32 pages decode
	// bit-identically, so the paths carry the in-memory tolerances.
	oocT, err := storeBacked(t, nil, t.CompressedBytes()/2+1024)
	if err != nil {
		return nil, fmt.Errorf("testkit: building out-of-core twin: %w", err)
	}
	o.oocT = oocT
	o.Impls = append(o.Impls, Impl{
		Name: "opstore-tlr",
		Apply: func(x, y []complex64) error {
			oocT.MulVec(x, y)
			return nil
		},
		Adjoint: oocT.MulVecConjTrans,
		Tol:     compTol,
		PairTol: pairTol,
	})
	if cfg.Format != precision.FP32 {
		oocQ, err := storeBacked(t, precision.Uniform{F: cfg.Format}, t.CompressedBytes()/2+1024)
		if err != nil {
			return nil, fmt.Errorf("testkit: building quantized out-of-core twin: %w", err)
		}
		o.oocQ = oocQ
		qTol := MVMTolerance(n, acc, cfg.Format)
		o.Impls = append(o.Impls, Impl{
			Name: "opstore-" + cfg.Format.String(),
			Apply: func(x, y []complex64) error {
				oocQ.MulVec(x, y)
				return nil
			},
			Adjoint: oocQ.MulVecConjTrans,
			Tol:     qTol,
			PairTol: qTol,
		})
	}

	// The dense reference itself, as a two-sided Impl: its Apply trivially
	// matches ref, but registering it puts MulVecConjTrans under the
	// adjoint-identity invariant alongside the compressed paths.
	o.Impls = append(o.Impls, Impl{
		Name: "dense",
		Apply: func(x, y []complex64) error {
			a.MulVec(x, y)
			return nil
		},
		Adjoint: a.MulVecConjTrans,
		Tol:     pairTol,
	})
	return o, nil
}

// storeBacked round-trips t through the paged store format (in memory)
// under the given tier policy and returns the out-of-core twin served
// through a cache of the given byte budget.
func storeBacked(t *tlr.Matrix, pol precision.Policy, budget int64) (*tlr.Matrix, error) {
	st, err := pagedStore(t, pol, budget)
	if err != nil {
		return nil, err
	}
	return st.Matrix(0)
}

// pagedStore pages t into an in-memory store image and opens it.
func pagedStore(t *tlr.Matrix, pol precision.Policy, budget int64) (*opstore.Store, error) {
	var img bytes.Buffer
	k := &tlrio.Kernel{Freqs: []float64{0}, Mats: []*tlr.Matrix{t}}
	if err := tlrio.WritePaged(&img, k, pol); err != nil {
		return nil, err
	}
	return opstore.OpenBytes(img.Bytes(), budget)
}

// predictPerMul computes, from the chunk plan alone, the §6.6 absolute
// byte count and fmac count one full MulVec must execute: every PE runs
// four real MVMs of its V chunk (Rows × ColExtent) and four per U
// segment (rowExtent × K).
func predictPerMul(m *wsesim.Machine) (fmacs, bytes int64) {
	for _, pe := range m.PEs {
		colExt := pe.ColExtent
		rows := pe.Chunk.Rows
		fmacs += 4 * cs2.FMACs(rows, colExt)
		bytes += 4 * cs2.AbsoluteBytes(rows, colExt)
		for _, seg := range pe.Chunk.Segments {
			rowExt := min((seg.TileRow+1)*m.T.NB, m.T.M) - seg.TileRow*m.T.NB
			fmacs += 4 * cs2.FMACs(rowExt, seg.K)
			bytes += 4 * cs2.AbsoluteBytes(rowExt, seg.K)
		}
	}
	return fmacs, bytes
}

// Check runs trials random vectors through every implementation,
// asserting each against the dense reference (Tol) and against the
// sequential TLR output (PairTol), then verifies the invariants:
// adjoint consistency for every implementation that has an adjoint, and
// wsesim cycle/traffic consistency with the §6.5–§6.7 formulas.
func (o *Oracle) Check(rng *rand.Rand, trials int) error {
	m, n := o.A.Rows, o.A.Cols
	ref := make([]complex64, m)
	pairRef := make([]complex64, m)
	got := make([]complex64, m)
	for trial := 0; trial < trials; trial++ {
		x := Vec(rng, n)
		o.A.MulVec(x, ref)
		for k, impl := range o.Impls {
			if err := impl.Apply(x, got); err != nil {
				return fmt.Errorf("oracle trial %d: %s failed: %w", trial, impl.Name, err)
			}
			if e := RelErr(got, ref); e > impl.Tol {
				return fmt.Errorf("oracle trial %d: %s deviates from dense reference: relErr %.3g > tol %.3g",
					trial, impl.Name, e, impl.Tol)
			}
			if k == 0 {
				copy(pairRef, got)
				continue
			}
			if impl.PairTol > 0 {
				if e := RelErr(got, pairRef); e > impl.PairTol {
					return fmt.Errorf("oracle trial %d: %s deviates from %s: relErr %.3g > pairTol %.3g",
						trial, impl.Name, o.Impls[0].Name, e, impl.PairTol)
				}
			}
		}
	}
	return o.checkInvariants(rng)
}

// implOperator adapts an Impl with an adjoint to the Operator shape.
type implOperator struct {
	m, n int
	impl Impl
}

func (io *implOperator) Rows() int { return io.m }
func (io *implOperator) Cols() int { return io.n }
func (io *implOperator) Apply(x, y []complex64) {
	if err := io.impl.Apply(x, y); err != nil {
		panic(err)
	}
}
func (io *implOperator) ApplyAdjoint(x, y []complex64) { io.impl.Adjoint(x, y) }

func (o *Oracle) checkInvariants(rng *rand.Rand) error {
	m, n := o.A.Rows, o.A.Cols
	// 1. adjoint consistency ⟨Ax, y⟩ ≈ ⟨x, Aᴴy⟩ for every two-sided path
	//    (what LSQR/CGLS convergence rests on).
	adjTol := 1e-3
	for _, impl := range o.Impls {
		if impl.Adjoint == nil {
			continue
		}
		gap := AdjointGap(&implOperator{m: m, n: n, impl: impl}, rng, 3)
		if gap > adjTol {
			return fmt.Errorf("oracle: %s violates adjoint identity: gap %.3g > %.3g",
				impl.Name, gap, adjTol)
		}
	}
	// 2. row-fused sweeps: MulVecStep runs each tile row's forward half,
	//    the scale and the subtract, and the row's adjoint half without
	//    reordering a single accumulation, and MulVecNormal is its α = 0
	//    case, so both must reproduce their compositions bit for bit, in
	//    memory and on the store-backed twin.
	for _, tm := range []*tlr.Matrix{o.T, o.oocT} {
		if err := checkFusedSweeps(tm, Vec(rng, n), Vec(rng, m)); err != nil {
			return err
		}
	}
	// The MDC layers above the fused kernel add no arithmetic of their own
	// at a single frequency and unit scale, so they must reproduce the
	// tlr.Matrix step exactly — the sharded step also when its one task
	// is retried, fails over from a dead shard and comes back with a NaN
	// in its forward half before it is retried again (faultedSharded).
	{
		x, u := Vec(rng, n), Vec(rng, m)
		w, z := make([]complex64, m), make([]complex64, n)
		o.T.MulVecStep(x, 1, 0.75, u, w, z)
		k := &mdc.TLRKernel{Mats: []*tlr.Matrix{o.T}}
		op := &mdc.FreqOperator{K: k, Workers: 1}
		healthy, err := mdc.NewShardedFreqOperator(k, 0, 3)
		if err != nil {
			return err
		}
		faulted, err := faultedSharded(k)
		if err != nil {
			return err
		}
		for name, step := range map[string]func(w, z []complex64) error{
			"TLRKernel.ApplyStep":                     func(w, z []complex64) error { k.ApplyStep(0, x, 1, 0.75, u, w, z); return nil },
			"FreqOperator.ApplyStep":                  func(w, z []complex64) error { op.ApplyStep(x, 0.75, u, w, z); return nil },
			"ShardedFreqOperator.ApplyStep":           func(w, z []complex64) error { return healthy.ApplyStep(x, 0.75, u, w, z) },
			"ShardedFreqOperator.ApplyStep (faulted)": func(w, z []complex64) error { return faulted.ApplyStep(x, 0.75, u, w, z) },
		} {
			gotW, gotZ := make([]complex64, m), make([]complex64, n)
			if err := step(gotW, gotZ); err != nil {
				return fmt.Errorf("oracle: %s: %w", name, err)
			}
			if d := max(MaxULPDist(gotW, w), MaxULPDist(gotZ, z)); d != 0 {
				return fmt.Errorf("oracle: %s %d ULPs from the fused TLR step", name, d)
			}
		}
		if faulted.Runner.Alive() != 2 {
			return fmt.Errorf("oracle: the faulted sharded step left %d of 3 shards alive, want 2: its schedule did not fire", faulted.Runner.Alive())
		}
	}
	// 3. out-of-core identity: the store-backed twin runs the identical
	//    kernels on bit-identically decoded tiles, so its product — and,
	//    under a reduced format, the quantized pair's — must reproduce
	//    the in-memory counterpart to the bit. This is
	//    the differential proof that paging, CRC verification, tile
	//    decode, and streaming through scratch are invisible to the
	//    numerics.
	{
		x := Vec(rng, n)
		mem := make([]complex64, m)
		ooc := make([]complex64, m)
		o.T.MulVec(x, mem)
		o.oocT.MulVec(x, ooc)
		if d := MaxULPDist(ooc, mem); d != 0 {
			return fmt.Errorf("oracle: store-backed MulVec %d ULPs from in-memory", d)
		}
		if o.oocQ != nil {
			o.qT.MulVec(x, mem)
			o.oocQ.MulVec(x, ooc)
			if d := MaxULPDist(ooc, mem); d != 0 {
				return fmt.Errorf("oracle: store-backed quantized MulVec %d ULPs from precision.Quantize twin", d)
			}
		}
	}
	// 4. cycle model: the machine's worst-chunk cycle count must be
	//    positive and exactly reproduce the §6.7 strategy-1 formula.
	var wantCycles int64
	for _, pe := range o.machine.PEs {
		c := cs2.ChunkCycles(o.T.NB, pe.Chunk.Rows, len(pe.Chunk.Segments))
		if c <= 0 {
			return fmt.Errorf("oracle: nonpositive chunk cycles for PE at col %d row %d",
				pe.Chunk.Col, pe.Chunk.Row0)
		}
		if c > wantCycles {
			wantCycles = c
		}
	}
	if got := o.machine.ModelCycles(); got != wantCycles {
		return fmt.Errorf("oracle: ModelCycles %d != ChunkCycles recomputation %d", got, wantCycles)
	}
	// 5. executed traffic: the meters tallied while the oracle ran must
	//    equal the §6.6 absolute-bytes prediction from the chunk plan.
	if o.wsesimMuls > 0 {
		meter := o.machine.TotalMeter()
		if meter.FMACs != o.wsesimMuls*o.perMulFMACs {
			return fmt.Errorf("oracle: executed FMACs %d != predicted %d (%d products × %d)",
				meter.FMACs, o.wsesimMuls*o.perMulFMACs, o.wsesimMuls, o.perMulFMACs)
		}
		if meter.Bytes() != o.wsesimMuls*o.perMulBytes {
			return fmt.Errorf("oracle: executed bytes %d != predicted absolute bytes %d",
				meter.Bytes(), o.wsesimMuls*o.perMulBytes)
		}
	}
	return nil
}

// checkFusedSweeps holds tm's MulVecStep, at a non-unit scale, to
// MulVec → scale → subtract → MulVecConjTrans, and MulVecNormal to
// MulVecConjTrans∘MulVec, both to 0 ULP.
func checkFusedSweeps(tm *tlr.Matrix, x, u []complex64) error {
	const scale, alpha = 0.5, 0.75
	m, n := tm.M, tm.N
	ax, z := make([]complex64, m), make([]complex64, n)
	tm.MulVec(x, ax)
	tm.MulVecConjTrans(ax, z)
	fused := make([]complex64, n)
	tm.MulVecNormal(x, fused)
	if d := MaxULPDist(fused, z); d != 0 {
		return fmt.Errorf("oracle: MulVecNormal %d ULPs from MulVecConjTrans∘MulVec (store-backed %v)", d, tm.OutOfCore())
	}
	cfloat.Scal(scale, ax)
	cfloat.ScaleSub(1, ax, alpha, u)
	tm.MulVecConjTrans(ax, z)
	w := make([]complex64, m)
	tm.MulVecStep(x, scale, alpha, u, w, fused)
	if d := max(MaxULPDist(w, ax), MaxULPDist(fused, z)); d != 0 {
		return fmt.Errorf("oracle: MulVecStep %d ULPs from MulVec → scale → subtract → MulVecConjTrans (store-backed %v)", d, tm.OutOfCore())
	}
	return nil
}

// faultedSharded is a 3-shard operator over the one-frequency kernel k
// whose one task of each product fails twice on shard 0 — a retry in
// place, then the shard's death and a failover — and then comes back
// from the survivor with a NaN in its first output before it is retried.
// Backoffs do not sleep.
func faultedSharded(k mdc.Kernel) (*mdc.ShardedFreqOperator, error) {
	runner, err := batch.NewShardRunner(batch.ShardOptions{Shards: 3, Sleep: func(time.Duration) {}})
	if err != nil {
		return nil, err
	}
	var attempts atomic.Int64
	intercept := func(next batch.ShardExec) batch.ShardExec {
		return func(shard int, t batch.ShardTask) error {
			n := attempts.Add(1)
			if n <= 2 {
				return fmt.Errorf("oracle: injected fault %d on shard %d", n, shard)
			}
			if err := next(shard, t); err != nil {
				return err
			}
			if n == 3 {
				t.Y[0] = complex(float32(math.NaN()), 0)
			}
			return nil
		}
	}
	return &mdc.ShardedFreqOperator{K: k, Runner: runner, Intercept: intercept}, nil
}

// CompressionHolds asserts the TLR approximation actually meets the
// configured accuracy on the dense matrix — the premise the per-impl
// tolerances are derived from. Tests call it before Check so a tolerance
// violation is attributed to compression rather than execution.
func (o *Oracle) CompressionHolds() error {
	acc := o.Cfg.TLROpts.Tol
	if acc == 0 {
		return nil
	}
	rec := o.T.Reconstruct()
	// per-tile Frobenius bounds compound at most √(mt·nt) in the global
	// Frobenius norm; in practice the global error sits below acc itself.
	// Use the analytic worst case.
	bound := acc * float64(o.T.MT*o.T.NT)
	if e := dense.RelError(rec, o.A); e > bound {
		return fmt.Errorf("oracle: reconstruction error %.3g exceeds bound %.3g (acc %.3g)", e, bound, acc)
	}
	return nil
}
