// Package sfc implements the space-filling-curve reordering the paper
// applies to the rows (sources) and columns (receivers) of each frequency
// matrix before TLR compression ([23, 24] and §6.1): sorting grid points
// by their Hilbert-curve index gathers spatially close sources/receivers
// into the same tile, concentrating energy near the tile diagonal and
// dramatically reducing tile ranks. Morton (Z-order) ordering is provided
// as the weaker alternative the paper compares against.
package sfc

import "sort"

// Order identifies a reordering strategy.
type Order int

const (
	// Hilbert orders points along the Hilbert curve — the paper's choice
	// and so the zero value; Natural is a choice like any other.
	Hilbert Order = iota
	// Morton orders points along the Z-order curve.
	Morton
	// Natural keeps the original acquisition ordering (row-major grid).
	Natural
	// Shuffled applies a deterministic pseudo-random permutation — a
	// locality-destroying baseline for reordering ablations (not in the
	// paper, but useful to bound the effect of spatial locality).
	Shuffled
)

func (o Order) String() string {
	switch o {
	case Natural:
		return "natural"
	case Morton:
		return "morton"
	case Hilbert:
		return "hilbert"
	case Shuffled:
		return "shuffled"
	}
	return "unknown"
}

// hilbertXY2D converts (x, y) on a 2^k × 2^k grid to the distance along
// the Hilbert curve of order k.
func hilbertXY2D(k uint, x, y uint64) uint64 {
	var d uint64
	for s := uint64(1) << (k - 1); s > 0; s >>= 1 {
		var rx, ry uint64
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

func hilbertRot(s, x, y, rx, ry uint64) (uint64, uint64) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// mortonXY2D interleaves the bits of x and y into a Z-order index.
func mortonXY2D(x, y uint64) uint64 {
	return interleave(x) | interleave(y)<<1
}

func interleave(v uint64) uint64 {
	v &= 0xFFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// Point is a 2D grid location (inline x, crossline y), e.g. a source or
// receiver position index on the acquisition grid.
type Point struct {
	X, Y int
}

// Permutation returns perm such that newIndex = position of original point
// i in the reordered sequence; i.e. perm[j] is the original index of the
// point placed at position j. Points may form any nx×ny grid; indices are
// embedded in the smallest power-of-two Hilbert/Morton domain that covers
// them.
func Permutation(points []Point, o Order) []int {
	n := len(points)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if o == Natural || n == 0 {
		return perm
	}
	if o == Shuffled {
		// splitmix64-style deterministic shuffle
		state := uint64(0x9E3779B97F4A7C15)
		next := func() uint64 {
			state += 0x9E3779B97F4A7C15
			z := state
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return z ^ (z >> 31)
		}
		for i := n - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm
	}
	var maxC int
	for _, p := range points {
		if p.X > maxC {
			maxC = p.X
		}
		if p.Y > maxC {
			maxC = p.Y
		}
	}
	var k uint = 1
	for (1 << k) <= maxC {
		k++
	}
	keys := make([]uint64, n)
	for i, p := range points {
		switch o {
		case Hilbert:
			keys[i] = hilbertXY2D(k, uint64(p.X), uint64(p.Y))
		case Morton:
			keys[i] = mortonXY2D(uint64(p.X), uint64(p.Y))
		}
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

// GridPoints enumerates an nx×ny acquisition grid in natural (row-major,
// y-fastest) order, matching how sources/receivers are laid out in the
// original frequency matrices.
func GridPoints(nx, ny int) []Point {
	pts := make([]Point, 0, nx*ny)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			pts = append(pts, Point{X: ix, Y: iy})
		}
	}
	return pts
}

// Inverse returns the inverse permutation: inv[perm[j]] = j.
func Inverse(perm []int) []int {
	inv := make([]int, len(perm))
	for j, p := range perm {
		inv[p] = j
	}
	return inv
}

// ApplyRows returns a copy of the rows of an m×n column-major complex64
// matrix reordered so that new row j is original row perm[j].
func ApplyRows(data []complex64, m, n int, perm []int) []complex64 {
	if len(perm) != m {
		panic("sfc: ApplyRows permutation length mismatch")
	}
	out := make([]complex64, m*n)
	for j := 0; j < n; j++ {
		src := data[j*m : j*m+m]
		dst := out[j*m : j*m+m]
		for i, p := range perm {
			dst[i] = src[p]
		}
	}
	return out
}

// ApplyCols returns a copy with columns reordered: new column j is
// original column perm[j].
func ApplyCols(data []complex64, m, n int, perm []int) []complex64 {
	if len(perm) != n {
		panic("sfc: ApplyCols permutation length mismatch")
	}
	out := make([]complex64, m*n)
	for j, p := range perm {
		copy(out[j*m:j*m+m], data[p*m:p*m+m])
	}
	return out
}
