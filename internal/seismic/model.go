package seismic

import (
	"fmt"
	"math"
)

// VelocityModel is an overthrust-style layered model with a water column:
// a stack of sub-seafloor interfaces whose depths vary laterally through a
// gentle dip plus a thrust-fault offset, mimicking the structural style of
// the SEG/EAGE Overthrust model the paper images.
type VelocityModel struct {
	// WaterVel is the acoustic velocity of the water column (m/s).
	WaterVel float64
	// WaterDepth is the seafloor depth (m); equals Geometry.RecDepth.
	WaterDepth float64
	// SubVel is the representative velocity below the seafloor used for
	// reflection traveltimes (m/s).
	SubVel float64
	// Interfaces are the sub-seafloor reflectors, shallow to deep.
	Interfaces []Interface
	// WaterBottomRefl is the seafloor reflection coefficient feeding the
	// water-layer multiple series in p+.
	WaterBottomRefl float64
}

// Interface is one sub-seafloor reflector.
type Interface struct {
	// Depth is the reference depth below the free surface at x = 0 (m).
	Depth float64
	// DipPerMeter tilts the interface: depth(x) = Depth + DipPerMeter·x.
	DipPerMeter float64
	// FaultX is the inline position of the thrust fault (m); beyond it the
	// interface is displaced upward by FaultThrow.
	FaultX float64
	// FaultThrow is the vertical throw across the fault (m).
	FaultThrow float64
	// Refl is the reflection coefficient (amplitude) of the interface.
	Refl float64
}

// depthAt returns the interface depth below the free surface at inline
// position x (m).
func (ifc Interface) depthAt(x float64) float64 {
	d := ifc.Depth + ifc.DipPerMeter*x
	if x > ifc.FaultX {
		d -= ifc.FaultThrow
	}
	return d
}

// defaultModel returns the overthrust-style model every survey is
// synthesized over: 1500 m/s water over a waterDepth column, three
// dipping faulted reflectors in a 2500 m/s substrate.
func defaultModel(waterDepth float64) *VelocityModel {
	return &VelocityModel{
		WaterVel:        1500,
		WaterDepth:      waterDepth,
		SubVel:          2500,
		WaterBottomRefl: 0.35,
		Interfaces: []Interface{
			{Depth: waterDepth + 350, DipPerMeter: 0.04, FaultX: 120, FaultThrow: 60, Refl: 0.25},
			{Depth: waterDepth + 700, DipPerMeter: -0.03, FaultX: 160, FaultThrow: 90, Refl: 0.20},
			{Depth: waterDepth + 1100, DipPerMeter: 0.02, FaultX: 100, FaultThrow: 50, Refl: 0.30},
		},
	}
}

// validate reports whether the model is physically sensible.
func (m *VelocityModel) validate() error {
	if m.WaterVel <= 0 || m.SubVel <= 0 {
		return fmt.Errorf("seismic: nonpositive velocity")
	}
	if m.WaterDepth <= 0 {
		return fmt.Errorf("seismic: nonpositive water depth")
	}
	if math.Abs(m.WaterBottomRefl) >= 1 {
		return fmt.Errorf("seismic: water-bottom reflection coefficient %g out of (-1,1)", m.WaterBottomRefl)
	}
	for i, ifc := range m.Interfaces {
		if ifc.Depth <= m.WaterDepth {
			return fmt.Errorf("seismic: interface %d above the seafloor", i)
		}
		if math.Abs(ifc.Refl) >= 1 {
			return fmt.Errorf("seismic: interface %d reflection coefficient %g out of (-1,1)", i, ifc.Refl)
		}
	}
	return nil
}

// VelocityAt returns the P velocity at position (x, z) for section display
// (Fig. 13's velocity-model panel): water above the seafloor, substrate
// velocity increasing by 10% across each interface below.
func (m *VelocityModel) VelocityAt(x, z float64) float64 {
	if z < m.WaterDepth {
		return m.WaterVel
	}
	v := m.SubVel
	for _, ifc := range m.Interfaces {
		if z > ifc.depthAt(x) {
			v *= 1.10
		}
	}
	return v
}
