package wsesim

import (
	"fmt"

	"repro/internal/cs2"
)

// §6.5: "Each PE can perform up to two 64-bit reads and one 64-bit write
// per cycle. On each PE, the 48kB of SRAM memory is divided up into eight
// banks of 6kB each. To perform two reads in a cycle, the reads must be
// from separate banks. Thus, one must properly align memory and pad
// arrays to guarantee this for every fmac instruction."
//
// BankPlan places every array of a PE's SRAM image into banks so that the
// two operands of each fmac (a matrix element and its accumulator
// element) never share a bank.

// ArrayKind labels the role of an array in the fmac schedule.
type ArrayKind int

const (
	// KindMatrix arrays stream as the first fmac read operand.
	KindMatrix ArrayKind = iota
	// KindAccum arrays are the read-modify-write accumulator operand.
	KindAccum
	// KindVector arrays (x) are read once per column, off the critical
	// dual-read cycle.
	KindVector
)

// Array is one placed allocation.
type Array struct {
	Name  string
	Kind  ArrayKind
	Bytes int
	// Banks is the set of banks the allocation touches (contiguous
	// placement across bank boundaries).
	Banks []int
	// ConflictsWith names the accumulator array this matrix streams
	// against (empty for non-matrix arrays).
	ConflictsWith string
}

// BankPlan is a complete placement.
type BankPlan struct {
	Arrays []Array
	// Free is the remaining capacity per bank.
	Free []int
}

// PlanBanks builds a conflict-free placement of the PE's arrays using a
// two-pass first-fit: accumulators (small) are pinned first, one bank
// each; matrix planes then fill the remaining banks, skipping any bank
// holding their paired accumulator. It returns an error when no
// conflict-free placement exists.
func (pe *PE) PlanBanks() (*BankPlan, error) {
	const nb = cs2.NumBanks
	free := make([]int, nb)
	for i := range free {
		free[i] = cs2.BankBytes
	}
	align := func(bytes int) int { return (bytes + 7) &^ 7 }

	var arrays []Array
	// accumulators: yv (V phase) and one y partial per segment (U phase)
	arrays = append(arrays, Array{Name: "yv", Kind: KindAccum, Bytes: align(8 * pe.Chunk.Rows)})
	for s, re := range pe.rowExt {
		arrays = append(arrays, Array{
			Name: fmt.Sprintf("y%d", s), Kind: KindAccum, Bytes: align(8 * re),
		})
	}
	// matrix planes with their conflicting accumulator
	arrays = append(arrays,
		Array{Name: "vr", Kind: KindMatrix, Bytes: align(4 * len(pe.vr)), ConflictsWith: "yv"},
		Array{Name: "vi", Kind: KindMatrix, Bytes: align(4 * len(pe.vi)), ConflictsWith: "yv"},
	)
	for s := range pe.ur {
		arrays = append(arrays,
			Array{Name: fmt.Sprintf("ur%d", s), Kind: KindMatrix, Bytes: align(4 * len(pe.ur[s])), ConflictsWith: fmt.Sprintf("y%d", s)},
			Array{Name: fmt.Sprintf("ui%d", s), Kind: KindMatrix, Bytes: align(4 * len(pe.ui[s])), ConflictsWith: fmt.Sprintf("y%d", s)},
		)
	}
	// x is off the dual-read path
	arrays = append(arrays, Array{Name: "x", Kind: KindVector, Bytes: align(8 * pe.ColExtent)})

	bankOf := map[string][]int{}
	// pass 1: accumulators, spread round-robin so matrices retain room
	rr := 0
	for i := range arrays {
		a := &arrays[i]
		if a.Kind != KindAccum {
			continue
		}
		placed := false
		for try := 0; try < nb; try++ {
			b := (rr + try) % nb
			if free[b] >= a.Bytes {
				free[b] -= a.Bytes
				a.Banks = []int{b}
				bankOf[a.Name] = a.Banks
				rr = b + 1
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("wsesim: accumulator %s (%d B) does not fit any bank", a.Name, a.Bytes)
		}
	}
	// pass 2: matrices and vectors, first-fit across banks avoiding the
	// paired accumulator's bank; allocations may span several banks
	for i := range arrays {
		a := &arrays[i]
		if a.Kind == KindAccum {
			continue
		}
		var avoid []int
		if a.ConflictsWith != "" {
			avoid = bankOf[a.ConflictsWith]
		}
		remaining := a.Bytes
		for b := 0; b < nb && remaining > 0; b++ {
			if containsInt(avoid, b) || free[b] == 0 {
				continue
			}
			take := min(free[b], remaining)
			free[b] -= take
			remaining -= take
			a.Banks = append(a.Banks, b)
		}
		if remaining > 0 {
			return nil, fmt.Errorf("wsesim: array %s (%d B) does not fit (%d B left over)", a.Name, a.Bytes, remaining)
		}
		bankOf[a.Name] = a.Banks
	}
	return &BankPlan{Arrays: arrays, Free: free}, nil
}

// Verify checks the dual-read constraint: no matrix array shares a bank
// with its paired accumulator.
func (p *BankPlan) Verify() error {
	banks := map[string][]int{}
	for _, a := range p.Arrays {
		banks[a.Name] = a.Banks
	}
	for _, a := range p.Arrays {
		if a.Kind != KindMatrix || a.ConflictsWith == "" {
			continue
		}
		for _, b := range a.Banks {
			if containsInt(banks[a.ConflictsWith], b) {
				return fmt.Errorf("wsesim: %s and %s share bank %d", a.Name, a.ConflictsWith, b)
			}
		}
	}
	return nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
