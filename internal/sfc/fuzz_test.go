package sfc

import "testing"

// FuzzHilbertRoundTrip asserts that the Hilbert index maps are mutual
// inverses on every 2^k × 2^k domain: encode∘decode and decode∘encode are
// both the identity, and encoded indices stay inside the curve's range.
func FuzzHilbertRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(0), uint64(0))
	f.Add(uint8(4), uint64(7), uint64(12))
	f.Add(uint8(16), uint64(65535), uint64(1))
	f.Fuzz(func(t *testing.T, order uint8, x, y uint64) {
		k := uint(order%16) + 1 // orders 1..16 keep d within uint64
		side := uint64(1) << k
		x %= side
		y %= side
		d := hilbertXY2D(k, x, y)
		if d >= side*side {
			t.Fatalf("k=%d (%d,%d): index %d outside curve of length %d", k, x, y, d, side*side)
		}
		x2, y2 := hilbertD2XY(k, d)
		if x2 != x || y2 != y {
			t.Fatalf("k=%d: decode(encode(%d,%d)) = (%d,%d)", k, x, y, x2, y2)
		}
		if d2 := hilbertXY2D(k, x2, y2); d2 != d {
			t.Fatalf("k=%d: encode(decode(%d)) = %d", k, d, d2)
		}
	})
}

// FuzzPermutationBijection asserts that Permutation returns a bijection of
// [0,n) on arbitrary grids for every ordering, that Inverse really inverts
// it, and that Natural is the identity.
func FuzzPermutationBijection(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(0))
	f.Add(uint8(8), uint8(6), uint8(1))
	f.Add(uint8(5), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, nxRaw, nyRaw, orderRaw uint8) {
		nx := int(nxRaw%24) + 1
		ny := int(nyRaw%24) + 1
		order := Order(orderRaw % 4)
		pts := GridPoints(nx, ny)
		perm := Permutation(pts, order)
		n := nx * ny
		if len(perm) != n {
			t.Fatalf("%v %dx%d: perm length %d", order, nx, ny, len(perm))
		}
		seen := make([]bool, n)
		for j, p := range perm {
			if p < 0 || p >= n {
				t.Fatalf("%v: perm[%d]=%d outside [0,%d)", order, j, p, n)
			}
			if seen[p] {
				t.Fatalf("%v: index %d appears twice", order, p)
			}
			seen[p] = true
		}
		inv := Inverse(perm)
		for j := range perm {
			if inv[perm[j]] != j {
				t.Fatalf("%v: Inverse broken at %d", order, j)
			}
		}
		if order == Natural {
			for j, p := range perm {
				if p != j {
					t.Fatalf("Natural order moved %d to %d", p, j)
				}
			}
		}
	})
}

// FuzzVectorPermutationRoundTrip: PermuteVector followed by
// UnpermuteVector must restore any vector bit-for-bit under any ordering.
func FuzzVectorPermutationRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(1), int64(7))
	f.Fuzz(func(t *testing.T, nxRaw, nyRaw, orderRaw uint8, seed int64) {
		nx := int(nxRaw%16) + 1
		ny := int(nyRaw%16) + 1
		perm := Permutation(GridPoints(nx, ny), Order(orderRaw%4))
		n := nx * ny
		x := make([]complex64, n)
		s := uint64(seed)
		for i := range x {
			s = s*6364136223846793005 + 1442695040888963407
			x[i] = complex(float32(int32(s>>33))/65536, float32(int32(s))/65536)
		}
		back := ApplyRows(ApplyRows(x, n, 1, perm), n, 1, Inverse(perm))
		for i := range x {
			if back[i] != x[i] {
				t.Fatalf("round trip changed element %d", i)
			}
		}
	})
}
