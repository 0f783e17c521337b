// Package roofline builds the roofline performance models of Figs. 15 and
// 16: peak-bandwidth/peak-compute ceilings for the hardware platforms the
// paper compares against, plus the measured TLR-MVM operating points. All
// machine parameters are public peak specifications, exactly as the paper
// uses them.
package roofline

import "fmt"

// Machine is a hardware platform with aggregate peak numbers.
type Machine struct {
	// Name identifies the platform as labelled in the figures.
	Name string
	// Units is the number of devices/nodes aggregated.
	Units int
	// BWPerUnit is the peak memory bandwidth per unit in B/s.
	BWPerUnit float64
	// FlopsPerUnit is the peak single-precision compute per unit in
	// flop/s.
	FlopsPerUnit float64
}

// PeakBW returns the aggregate peak bandwidth in B/s.
func (m Machine) PeakBW() float64 { return float64(m.Units) * m.BWPerUnit }

// PeakFlops returns the aggregate peak compute in flop/s.
func (m Machine) PeakFlops() float64 { return float64(m.Units) * m.FlopsPerUnit }

// RidgeAI returns the arithmetic intensity at which the machine moves from
// memory-bound to compute-bound.
func (m Machine) RidgeAI() float64 {
	if m.PeakBW() == 0 {
		return 0
	}
	return m.PeakFlops() / m.PeakBW()
}

func (m Machine) String() string {
	return fmt.Sprintf("%s (%d units, %.3g PB/s, %.3g PFlop/s)",
		m.Name, m.Units, m.PeakBW()/1e15, m.PeakFlops()/1e15)
}

// The chips that both figures aggregate, each declared once with its
// per-unit peaks. One CS-2 is 20 PB/s of aggregate SRAM bandwidth and
// 1.7 PFlop/s FP32 (Fig. 15's six-system ceiling is 120 PB/s and 10.2
// PFlop/s; Fig. 16's 48-system Condor Galaxy ceiling is 960 PB/s and
// 81.6 PFlop/s). One A64FX is Fugaku's 1.024 TB/s of HBM2.
var (
	cerebras = Machine{Name: "Cerebras CS-2", Units: 1, BWPerUnit: 20e15, FlopsPerUnit: 1.7e15}
	mi250x   = Machine{Name: "AMD MI250X", Units: 1, BWPerUnit: 3.2e12, FlopsPerUnit: 95.7e12}
	a100     = Machine{Name: "NVIDIA A100", Units: 1, BWPerUnit: 2.0e12, FlopsPerUnit: 19.5e12}
	a64fx    = Machine{Name: "Fujitsu A64FX", Units: 1, BWPerUnit: 1.024e12, FlopsPerUnit: 6.8e12}
)

// times returns units of chip c under the figure's label name.
func (c Machine) times(units int, name string) Machine {
	c.Units, c.Name = units, name
	return c
}

// Fig15Machines returns the minimum vendor configurations of Fig. 15 that
// can host the compressed seismic workload in memory.
func Fig15Machines() []Machine {
	return []Machine{
		cerebras.times(6, "Six Cerebras CS-2"),
		mi250x.times(1, "One AMD MI250X"),
		a100.times(2, "Two NVIDIA A100"),
		a64fx.times(4, "Four Fujitsu A64FX"),
		{Name: "Three NEC SX-Aurora TSUBASA", Units: 3, BWPerUnit: 1.53e12, FlopsPerUnit: 4.91e12},
		{Name: "One AMD EPYC Rome", Units: 1, BWPerUnit: 204.8e9, FlopsPerUnit: 4.1e12},
		{Name: "One Intel Ice Lake", Units: 1, BWPerUnit: 204.8e9, FlopsPerUnit: 4.3e12},
	}
}

// Fig16Machines returns the Top-5 systems of Fig. 16 alongside the
// 48-system Condor Galaxy deployment.
func Fig16Machines() []Machine {
	return []Machine{
		cerebras.times(48, "Condor Galaxy (48 Cerebras CS-2)"),
		a64fx.times(158976, "Fugaku (158976 Fujitsu A64FX)"),
		mi250x.times(37888, "Frontier (37888 AMD MI250X)"),
		mi250x.times(10240, "LUMI (10240 AMD MI250X)"),
		a100.times(13824, "Leonardo (13824 NVIDIA A100)"),
		{Name: "Summit (27648 NVIDIA V100)", Units: 27648, BWPerUnit: 0.9e12, FlopsPerUnit: 15.7e12},
	}
}

// Point is a measured (or estimated) operating point on a roofline plot.
type Point struct {
	Name string
	// AI is the arithmetic intensity in flop/byte.
	AI float64
	// Flops is the sustained compute rate in flop/s.
	Flops float64
	// BW is the sustained bandwidth in B/s (Flops / AI).
	BW float64
}

// NewPoint derives a Point from sustained flop/s and bytes/s.
func NewPoint(name string, flops, bw float64) Point {
	ai := 0.0
	if bw > 0 {
		ai = flops / bw
	}
	return Point{Name: name, AI: ai, Flops: flops, BW: bw}
}

// ConstantRankEstimates returns the paper's upper-bound TLR-MVM estimates
// with constant ranks on Fugaku and Frontier (Fig. 16): synthetic-dataset
// extrapolations of 95.38 PB/s and 69.01 PB/s respectively.
func ConstantRankEstimates() []Point {
	return []Point{
		NewPoint("TLR-MVM w/ constant ranks on Fugaku", 0.32*95.38e15, 95.38e15),
		NewPoint("TLR-MVM w/ constant ranks on Frontier", 0.32*69.01e15, 69.01e15),
	}
}
