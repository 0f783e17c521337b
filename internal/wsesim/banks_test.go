package wsesim

import (
	"math/rand"
	"testing"

	"repro/internal/cs2"
	"repro/internal/dense"
	"repro/internal/tlr"
)

func TestBankPlanConflictFree(t *testing.T) {
	mach, _ := buildMachine(t, 96, 80, 16, 8, 1e-3)
	for i, pe := range mach.PEs {
		plan, err := pe.PlanBanks()
		if err != nil {
			t.Fatalf("PE %d: %v", i, err)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("PE %d: %v", i, err)
		}
		// the planner lists the image array by array; what it places
		// must be what the PE says it holds
		var placed int
		for _, a := range plan.Arrays {
			placed += a.Bytes
		}
		if placed != pe.sramBytes() {
			t.Fatalf("PE %d: planner places %d B, sramBytes reports %d", i, placed, pe.sramBytes())
		}
	}
}

func TestBankPlanPaperScaleChunk(t *testing.T) {
	// the paper's strategy-1 chunks nearly fill 48 kB (sw=64, nb=25 →
	// 25.6 kB of bases plus vectors); the planner must still place them
	// conflict-free. Build a full-rank tall matrix so chunks are dense.
	rng := rand.New(rand.NewSource(31))
	a := dense.Random(rng, 400, 25)
	tm, err := tlr.Compress(a, tlr.Options{NB: 25, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := Build(tm, 64)
	if err != nil {
		t.Fatal(err)
	}
	worst := mach.PEs[0]
	for _, pe := range mach.PEs {
		if pe.sramBytes() > worst.sramBytes() {
			worst = pe
		}
	}
	if worst.sramBytes() < 20*1024 {
		t.Fatalf("test chunk only %d B — not the near-full case intended", worst.sramBytes())
	}
	plan, err := worst.PlanBanks()
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	// capacity bookkeeping: free never negative, total within 48 kB
	var used int
	for _, f := range plan.Free {
		if f < 0 {
			t.Fatal("negative free capacity")
		}
		used += cs2.BankBytes - f
	}
	if used > cs2.SRAMBytes {
		t.Fatalf("placed %d B into 48 kB", used)
	}
}

// TestBankPlanFailsWhenOverfull: two 28 kB matrix planes — more than the
// eight 6 kB banks hold together — cannot be placed. Build refuses such
// an image, so the PE is assembled by hand.
func TestBankPlanFailsWhenOverfull(t *testing.T) {
	const rows, cols = 100, 70
	pe := &PE{
		Chunk: Chunk{Rows: rows}, ColExtent: cols,
		vr: make([]float32, rows*cols), vi: make([]float32, rows*cols),
	}
	if pe.sramBytes() <= cs2.SRAMBytes {
		t.Fatalf("test image is %d B, not more than the %d B of SRAM", pe.sramBytes(), cs2.SRAMBytes)
	}
	if _, err := pe.PlanBanks(); err == nil {
		t.Error("overfull placement should fail")
	}
}

func TestVerifyDetectsViolation(t *testing.T) {
	p := &BankPlan{Arrays: []Array{
		{Name: "y0", Kind: KindAccum, Banks: []int{1}},
		{Name: "ur0", Kind: KindMatrix, Banks: []int{1, 2}, ConflictsWith: "y0"},
	}}
	if p.Verify() == nil {
		t.Error("shared bank not detected")
	}
}
