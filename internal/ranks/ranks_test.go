package ranks

import (
	"math"
	"sync"
	"testing"
)

// paperDist caches calibrated paper-scale distributions across tests —
// the nb=25 layouts take ~1 s each to build.
var (
	paperMu    sync.Mutex
	paperCache = map[Config]*Distribution{}
)

func paperDist(t testing.TB, cfg Config) *Distribution {
	t.Helper()
	paperMu.Lock()
	defer paperMu.Unlock()
	if d, ok := paperCache[cfg]; ok {
		return d
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	paperCache[cfg] = d
	return d
}

func TestPaperDenseBytes(t *testing.T) {
	// §6.1: 230 matrices of 26040×15930 complex64 ≈ 763 GB
	gb := float64(PaperDenseBytes) / 1e9
	if gb < 760 || gb < 0 || gb > 767 {
		t.Errorf("dense dataset %g GB, paper says ≈763", gb)
	}
}

func TestCalibrationHitsFig12Totals(t *testing.T) {
	// Every published configuration must calibrate to within Fig12Tol of
	// its Fig. 12 aggregate size.
	for cfg, want := range Fig12TotalBytes {
		d := paperDist(t, cfg)
		got := d.TotalBytes()
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > Fig12Tol {
			t.Errorf("%v: modelled %g GB vs published %g GB (%.1f%%)",
				cfg, float64(got)/1e9, float64(want)/1e9, rel*100)
		}
	}
}

func TestCompressionRatioNearSevenX(t *testing.T) {
	// §6.1: 7X compression at acc=1e-4
	d := paperDist(t, Config{NB: 70, Acc: 1e-4})
	r := float64(PaperDenseBytes) / float64(d.TotalBytes())
	if r < 6 || r > 8 {
		t.Errorf("compression ratio %g, want ≈7", r)
	}
}

func TestRanksDecayFromDiagonal(t *testing.T) {
	d, err := NewCustom(Params{NB: 16, Rows: 320, Cols: 320, NumFreqs: 10, TargetBytes: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	f := d.NumFreqs - 1
	onDiag := d.Rank(f, 5, 5)
	offDiag := d.Rank(f, 5, d.NT-1)
	if offDiag > onDiag {
		t.Errorf("rank grows away from diagonal: %d vs %d", offDiag, onDiag)
	}
	if onDiag < 1 {
		t.Error("diagonal tiles should have positive rank")
	}
}

func TestRanksGrowWithFrequency(t *testing.T) {
	// Fig. 12 bottom: size per frequency matrix rises with frequency
	d := paperDist(t, Config{NB: 50, Acc: 1e-4})
	bpf := d.BytesPerFrequency()
	if len(bpf) != PaperFreqs {
		t.Fatalf("got %d frequencies", len(bpf))
	}
	if bpf[0] >= bpf[len(bpf)-1] {
		t.Errorf("per-frequency size not rising: %d → %d", bpf[0], bpf[len(bpf)-1])
	}
	// the sum must be the total
	var sum int64
	for _, b := range bpf {
		sum += b
	}
	if sum != d.TotalBytes() {
		t.Errorf("per-frequency sizes sum to %d, total %d", sum, d.TotalBytes())
	}
}

func TestRankClamping(t *testing.T) {
	d, err := NewCustom(Params{NB: 4, Rows: 64, Cols: 64, NumFreqs: 3, TargetBytes: 150000})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		for i := 0; i < d.MT; i++ {
			for j := 0; j < d.NT; j++ {
				r := d.Rank(f, i, j)
				if r < 0 || r > 4 {
					t.Fatalf("rank %d out of [0,4]", r)
				}
			}
		}
	}
}

func TestStackedHeightsConsistent(t *testing.T) {
	d, err := NewCustom(Params{NB: 8, Rows: 128, Cols: 96, NumFreqs: 5, TargetBytes: 600000})
	if err != nil {
		t.Fatal(err)
	}
	sv := d.stackedColumnHeights()
	var total int64
	for f := range sv {
		if len(sv[f]) != d.NT {
			t.Fatal("wrong column count")
		}
		for j, s := range sv[f] {
			// must equal the direct sum of Rank
			var want int
			for i := 0; i < d.MT; i++ {
				want += d.Rank(f, i, j)
			}
			if s != want {
				t.Fatalf("Sv[%d][%d] = %d, direct sum %d", f, j, s, want)
			}
			total += int64(s)
		}
	}
	if total != d.TotalRankRows() {
		t.Error("TotalRankRows inconsistent")
	}
}

func TestPaperStackWidthsReproduceTable1PEs(t *testing.T) {
	// Table 1: with the published stack widths on 6 systems, the chunk
	// count (= PEs used under strategy 1) must land close to the
	// published PE counts and inside the 6-system budget, and the
	// auto-fit rule (the smallest stack width that fits the budget, which
	// cmd/ablate -strategies uses) must land on the published stack
	// width or one below it.
	budget := int64(6 * 745500)
	for _, r := range PaperSixShard {
		d := paperDist(t, r.Config)
		chunks, worst := d.Chunks(r.StackWidth)
		if !r.PEs.Admits(float64(chunks)) {
			t.Errorf("%v sw=%d: %d chunks vs paper %.0f PEs (%+.1f%%, tolerance %.0f%%)",
				r.Config, r.StackWidth, chunks, r.PEs.Value, 100*r.PEs.Delta(float64(chunks)), 100*r.PEs.Tol)
		}
		if chunks > budget {
			t.Errorf("%v sw=%d: %d chunks exceed 6-system budget %d", r.Config, r.StackWidth, chunks, budget)
		}
		if worst != r.StackWidth {
			t.Errorf("%v: worst chunk %d, want full %d", r.Config, worst, r.StackWidth)
		}
		if sw := d.StackWidthFor(budget); sw > r.StackWidth || sw < r.StackWidth-1 {
			t.Errorf("%v: auto-fit stack width %d, paper uses %d", r.Config, sw, r.StackWidth)
		}
	}
}

func TestStackWidthForBudget(t *testing.T) {
	d, err := NewCustom(Params{NB: 8, Rows: 256, Cols: 256, NumFreqs: 4, TargetBytes: 3e6})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(500)
	sw := d.StackWidthFor(budget)
	n, _ := d.Chunks(sw)
	if n > budget {
		t.Errorf("sw=%d gives %d chunks over budget %d", sw, n, budget)
	}
	if sw > 1 {
		n2, _ := d.Chunks(sw - 1)
		if n2 <= budget {
			t.Errorf("sw-1=%d also fits (%d chunks): not minimal", sw-1, n2)
		}
	}
}

func TestNewCustomValidation(t *testing.T) {
	if _, err := NewCustom(Params{NB: 0, Rows: 1, Cols: 1, NumFreqs: 1, TargetBytes: 1}); err == nil {
		t.Error("NB=0 should fail")
	}
	if _, err := NewCustom(Params{NB: 4, Rows: 8, Cols: 8, NumFreqs: 1, TargetBytes: 0}); err == nil {
		t.Error("zero target should fail")
	}
	// unreachable target: more bytes than full rank allows
	if _, err := NewCustom(Params{NB: 4, Rows: 8, Cols: 8, NumFreqs: 1, TargetBytes: 1 << 40}); err == nil {
		t.Error("unreachable target should fail")
	}
}

func TestUnknownConfig(t *testing.T) {
	if _, err := New(Config{NB: 33, Acc: 1e-4}); err == nil {
		t.Error("unknown config should fail")
	}
}

func TestConfigString(t *testing.T) {
	s := Config{NB: 25, Acc: 1e-4}.String()
	if s != "nb=25 acc=1e-04" {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkCalibratePaperNB70(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{NB: 70, Acc: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}
