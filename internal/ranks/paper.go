package ranks

import "math"

// This file is the one declaration of the paper's CS-2 results (§7:
// Fig. 14, Tables 1–5, §7.5, §7.6): every published row in print order, with
// the deviation the machine model is allowed on each quantity. The
// ranks, cs2 and wse tests assert it and cmd/paperrun prints REPORT.md
// from it. TestPaperTableCensus pins the row counts and refuses a
// widened tolerance.

// PaperPlan is one deployment the paper reports: a Fig. 12 configuration
// at a stack width on a number of CS-2 systems under a §6.7 strategy
// (1 or 2 — a plain int so this package imports nothing;
// wse.PaperModel converts it).
type PaperPlan struct {
	Config
	StackWidth int
	Systems    int
	Strategy   int
}

// Published is a value the paper prints and the largest relative
// deviation |model−paper|/paper the model is held to. The zero Published
// means the paper's table does not give the quantity for that row.
type Published struct {
	Value, Tol float64
}

// Delta returns the model's signed relative deviation from the paper.
func (p Published) Delta(model float64) float64 { return (model - p.Value) / p.Value }

// Admits reports whether the model's value is inside the tolerance.
func (p Published) Admits(model float64) bool { return math.Abs(p.Delta(model)) <= p.Tol }

// Band is a published value held to a closed interval rather than a
// symmetric tolerance: the paper gives it approximately (Fig. 14), or the
// model's known deviation is one-sided (§7.6).
type Band struct {
	Value, Lo, Hi float64
}

// Delta returns the model's signed relative deviation from the paper.
func (b Band) Delta(model float64) float64 { return (model - b.Value) / b.Value }

// Admits reports whether the model's value is inside the interval.
func (b Band) Admits(model float64) bool { return b.Lo <= model && model <= b.Hi }

// PaperRow is one row of Tables 1–5. Occupancy is a fraction, bytes are
// totals per TLR-MVM, bandwidths PB/s, flop rates PFlop/s. Two tolerances
// are tighter than the literals this table replaced: occupancy was held
// to ±0.08 absolute (as a fraction ≤ 1 its relative 0.08 is never wider),
// and worst cycles to 0.10 by the cs2 test but 0.12 by the wse test.
type PaperRow struct {
	PaperPlan
	PEs, Occupancy             Published // Table 1
	Cycles, RelBytes, AbsBytes Published // Table 2
	RelPBps, AbsPBps, PFlops   Published // Tables 3–5
}

// PaperSixShard is Tables 1–3: the five configurations validated for MDD
// accuracy, on six systems under strategy 1. The nb=25 flop rate runs
// ~20 % above the paper's (EXPERIMENTS.md, Table 3), hence its 0.25. The
// ±15 % on relative bandwidth has a floor: the paper's own Table 2 bytes
// × 850 MHz ÷ its Table 2 worst cycles differ from these Table 3 values
// by −7.6 … +4.1 % (cs2's TestPaperDisagreesWithItself), so no relative
// bandwidth tolerance, here or in Tables 4–5, may be tighter than 7.6 %.
var PaperSixShard = []PaperRow{
	{
		PaperPlan: PaperPlan{Config{25, 1e-4}, 64, 6, 1},
		PEs:       Published{4417690, 0.10}, Occupancy: Published{0.99, 0.08},
		Cycles: Published{21350, 0.10}, RelBytes: Published{2.94e11, 0.12}, AbsBytes: Published{6.85e11, 0.12},
		RelPBps: Published{11.24, 0.15}, AbsPBps: Published{26.19, 0.15}, PFlops: Published{3.77, 0.25},
	},
	{
		PaperPlan: PaperPlan{Config{50, 1e-4}, 32, 6, 1},
		PEs:       Published{4330150, 0.10}, Occupancy: Published{0.97, 0.08},
		Cycles: Published{19214, 0.10}, RelBytes: Published{2.60e11, 0.12}, AbsBytes: Published{6.71e11, 0.12},
		RelPBps: Published{11.70, 0.15}, AbsPBps: Published{30.15, 0.15}, PFlops: Published{4.60, 0.15},
	},
	{
		PaperPlan: PaperPlan{Config{70, 1e-4}, 23, 6, 1},
		PEs:       Published{4416383, 0.10}, Occupancy: Published{0.98, 0.08},
		Cycles: Published{19131, 0.10}, RelBytes: Published{2.60e11, 0.12}, AbsBytes: Published{6.89e11, 0.12},
		RelPBps: Published{11.92, 0.15}, AbsPBps: Published{31.62, 0.15}, PFlops: Published{4.89, 0.15},
	},
	{
		PaperPlan: PaperPlan{Config{50, 3e-4}, 18, 6, 1},
		PEs:       Published{4445947, 0.10}, Occupancy: Published{0.99, 0.08},
		Cycles: Published{12275, 0.10}, RelBytes: Published{1.64e11, 0.12}, AbsBytes: Published{3.89e11, 0.12},
		RelPBps: Published{12.26, 0.15}, AbsPBps: Published{29.05, 0.15}, PFlops: Published{4.16, 0.15},
	},
	{
		PaperPlan: PaperPlan{Config{70, 3e-4}, 14, 6, 1},
		PEs:       Published{4252877, 0.10}, Occupancy: Published{0.95, 0.08},
		Cycles: Published{12999, 0.10}, RelBytes: Published{1.64e11, 0.12}, AbsBytes: Published{4.06e11, 0.12},
		RelPBps: Published{11.60, 0.15}, AbsPBps: Published{28.79, 0.15}, PFlops: Published{4.23, 0.15},
	},
}

// PaperStrongScaling is the interior of Table 4: nb=25 acc=1e-4 under
// strategy 1 as the stack width splits across more systems.
var PaperStrongScaling = []PaperRow{
	{PaperPlan: PaperPlan{Config{25, 1e-4}, 32, 12, 1}, RelPBps: Published{22.13, 0.18}},
	{PaperPlan: PaperPlan{Config{25, 1e-4}, 24, 16, 1}, RelPBps: Published{29.28, 0.18}},
	{PaperPlan: PaperPlan{Config{25, 1e-4}, 19, 20, 1}, RelPBps: Published{35.77, 0.18}},
}

// PaperFortyEight is Table 5: the 48-shard strategy-2 runs at acc=1e-4.
var PaperFortyEight = []PaperRow{
	{
		PaperPlan: PaperPlan{Config{25, 1e-4}, 64, 48, 2},
		RelPBps:   Published{87.73, 0.15}, AbsPBps: Published{204.51, 0.15}, PFlops: Published{29.40, 0.25},
	},
	{
		PaperPlan: PaperPlan{Config{50, 1e-4}, 32, 47, 2},
		RelPBps:   Published{91.15, 0.15}, AbsPBps: Published{235.04, 0.15}, PFlops: Published{35.86, 0.15},
	},
	{
		PaperPlan: PaperPlan{Config{70, 1e-4}, 23, 48, 2},
		RelPBps:   Published{92.58, 0.15}, AbsPBps: Published{245.59, 0.15}, PFlops: Published{37.95, 0.15},
	},
}

// PaperTable4 returns Table 4 in print order: its six-shard baseline is
// Table 3's first row and its 48-shard run Table 5's first, so both are
// referenced here, not declared a second time.
func PaperTable4() []PaperRow {
	rows := []PaperRow{PaperSixShard[0]}
	rows = append(rows, PaperStrongScaling...)
	return append(rows, PaperFortyEight[0])
}

// PaperOverPeak is §7.5: the relative bandwidth the 48-shard nb=70 run
// sustains (Table 5's last row) is more than three times the theoretical
// peak memory bandwidth of Leonardo and of Summit (Fig. 16). The paper
// gives only the lower bound, so each ratio is held to [3, +∞).
var PaperOverPeak = []struct {
	PaperPlan
	// System is the Fig. 16 platform, the first word of its name in
	// internal/roofline.
	System string
	Ratio  Band
}{
	{PaperFortyEight[2].PaperPlan, "Leonardo", Band{3, 3, math.Inf(1)}},
	{PaperFortyEight[2].PaperPlan, "Summit", Band{3, 3, math.Inf(1)}},
}

// PaperFig14 is Fig. 14's reading: with a constant-size N×N MVM on every
// PE of one CS-2 the relative bandwidth saturates near 2 PB/s and the
// absolute metric shows about three times that (§7.1).
var PaperFig14 = struct {
	SaturatedRelPBps, AbsOverRel Band
}{Band{2, 1.5, 2.5}, Band{3, 2.5, 3.2}}

// PaperPower is §7.6: one CS-2 of the nb=25 acc=1e-4 sw=64 six-shard run
// sustains 16 kW at 36.50 GFlop/s/W. The efficiency band is lopsided
// because that configuration's modelled flop rate is the one that runs
// high.
var PaperPower = struct {
	PaperPlan
	KW, GFlopsPerWatt Band
}{PaperSixShard[0].PaperPlan, Band{16, 14, 18}, Band{36.50, 28, 52}}
