package main

// The program's whole output: layout, traffic and cycle counts, the
// simulated product's agreement with the reference, and the bank plans.
func Example() {
	main()
	// Output:
	// frequency matrix 160x112 → tlr.Matrix(160x112, nb=20, tiles=8x6, maxRank=10, ratio=1.33x)
	// layout: stack width 12 → 30 PEs, worst SRAM image 4576 B of 49152 B
	// simulated vs reference TLR-MVM within 1e-5 relative: true
	// executed traffic: 0.662 MB (0.447 MB reads, 0.216 MB writes), 53984 FMACs
	// modelled worst-chunk cycles: 3612 (4.25 us at 850 MHz)
	// absolute bandwidth at this layout's worst cycle: 0.16 TB/s (one matrix, 30 PEs)
	// bank placement: 30/30 PEs conflict-free (matrix and accumulator in distinct banks)
	// strategy 2: 240 PEs, worst single-MVM cycles 455 (vs 3612 for the full chunk), base memory x2
}
