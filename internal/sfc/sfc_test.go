package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// hilbertD2XY converts a distance d along the Hilbert curve of order k
// (covering a 2^k × 2^k grid) to (x, y) coordinates.
func hilbertD2XY(k uint, d uint64) (x, y uint64) {
	t := d
	for s := uint64(1); s < 1<<k; s <<= 1 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// totalNeighborDistance sums the Euclidean-squared distance between
// consecutive points in the given order — the locality metric the
// reordering minimizes (lower is better compression).
func totalNeighborDistance(points []Point, perm []int) float64 {
	var total float64
	for j := 1; j < len(perm); j++ {
		a := points[perm[j-1]]
		b := points[perm[j]]
		dx := float64(a.X - b.X)
		dy := float64(a.Y - b.Y)
		total += dx*dx + dy*dy
	}
	return total
}

func TestHilbertRoundTrip(t *testing.T) {
	for _, k := range []uint{1, 2, 3, 5, 8} {
		n := uint64(1) << k
		for d := uint64(0); d < n*n; d += 1 + d/17 {
			x, y := hilbertD2XY(k, d)
			if x >= n || y >= n {
				t.Fatalf("k=%d d=%d: point (%d,%d) outside grid", k, d, x, y)
			}
			if back := hilbertXY2D(k, x, y); back != d {
				t.Fatalf("k=%d: d=%d → (%d,%d) → %d", k, d, x, y, back)
			}
		}
	}
}

func TestHilbertCurveIsContinuous(t *testing.T) {
	// consecutive curve positions must be grid neighbours (Manhattan
	// distance 1) — the defining property of the Hilbert curve
	k := uint(4)
	n := uint64(1) << k
	px, py := hilbertD2XY(k, 0)
	for d := uint64(1); d < n*n; d++ {
		x, y := hilbertD2XY(k, d)
		dist := absDiff(x, px) + absDiff(y, py)
		if dist != 1 {
			t.Fatalf("curve jump at d=%d: (%d,%d) → (%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertVisitsEveryCell(t *testing.T) {
	k := uint(3)
	n := uint64(1) << k
	seen := make(map[[2]uint64]bool)
	for d := uint64(0); d < n*n; d++ {
		x, y := hilbertD2XY(k, d)
		key := [2]uint64{x, y}
		if seen[key] {
			t.Fatalf("cell (%d,%d) visited twice", x, y)
		}
		seen[key] = true
	}
	if len(seen) != int(n*n) {
		t.Fatalf("visited %d cells, want %d", len(seen), n*n)
	}
}

func TestMortonKnownValues(t *testing.T) {
	cases := []struct{ x, y, want uint64 }{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{3, 3, 15},
	}
	for _, c := range cases {
		if got := mortonXY2D(c.x, c.y); got != c.want {
			t.Errorf("Morton(%d,%d) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestMortonInjective(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for x := uint64(0); x < 32; x++ {
		for y := uint64(0); y < 32; y++ {
			m := mortonXY2D(x, y)
			if prev, ok := seen[m]; ok {
				t.Fatalf("Morton collision: (%d,%d) and (%v)", x, y, prev)
			}
			seen[m] = [2]uint64{x, y}
		}
	}
}

func TestPermutationIsValid(t *testing.T) {
	pts := GridPoints(13, 9) // non-power-of-two extents
	for _, o := range []Order{Natural, Morton, Hilbert} {
		perm := Permutation(pts, o)
		if len(perm) != len(pts) {
			t.Fatalf("%v: wrong length", o)
		}
		seen := make([]bool, len(pts))
		for _, p := range perm {
			if p < 0 || p >= len(pts) || seen[p] {
				t.Fatalf("%v: invalid permutation", o)
			}
			seen[p] = true
		}
	}
}

func TestNaturalPermutationIsIdentity(t *testing.T) {
	pts := GridPoints(4, 4)
	perm := Permutation(pts, Natural)
	for i, p := range perm {
		if p != i {
			t.Fatal("Natural order must be identity")
		}
	}
}

func TestHilbertImprovesLocalityOverNatural(t *testing.T) {
	// The core claim behind the reordering: Hilbert sort reduces the total
	// distance between neighbours versus the natural row-major order, and
	// beats Morton on the same metric (paper §4).
	pts := GridPoints(32, 24)
	natural := totalNeighborDistance(pts, Permutation(pts, Natural))
	morton := totalNeighborDistance(pts, Permutation(pts, Morton))
	hilbert := totalNeighborDistance(pts, Permutation(pts, Hilbert))
	if hilbert >= natural {
		t.Errorf("Hilbert (%g) not better than natural (%g)", hilbert, natural)
	}
	if hilbert > morton {
		t.Errorf("Hilbert (%g) worse than Morton (%g)", hilbert, morton)
	}
}

func TestInverse(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := Inverse(perm)
	for j, p := range perm {
		if inv[p] != j {
			t.Fatal("Inverse broken")
		}
	}
}

func TestApplyRowsCols(t *testing.T) {
	// 2x3 matrix, column-major: [[1,3,5],[2,4,6]]
	data := []complex64{1, 2, 3, 4, 5, 6}
	swapped := ApplyRows(data, 2, 3, []int{1, 0})
	want := []complex64{2, 1, 4, 3, 6, 5}
	for i := range want {
		if swapped[i] != want[i] {
			t.Fatalf("ApplyRows: %v", swapped)
		}
	}
	cols := ApplyCols(data, 2, 3, []int{2, 0, 1})
	wantC := []complex64{5, 6, 1, 2, 3, 4}
	for i := range wantC {
		if cols[i] != wantC[i] {
			t.Fatalf("ApplyCols: %v", cols)
		}
	}
}

func TestPermuteUnpermuteRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		x := make([]complex64, n)
		for i := range x {
			x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Intn(64), Y: rng.Intn(64)}
		}
		perm := Permutation(pts, Hilbert)
		y := ApplyRows(x, n, 1, perm)
		back := ApplyRows(y, n, 1, Inverse(perm))
		for i := range x {
			if back[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOrderString(t *testing.T) {
	if Natural.String() != "natural" || Morton.String() != "morton" || Hilbert.String() != "hilbert" {
		t.Error("Order.String broken")
	}
	if Order(9).String() != "unknown" {
		t.Error("unknown order")
	}
}

func TestGridPoints(t *testing.T) {
	pts := GridPoints(3, 2)
	if len(pts) != 6 {
		t.Fatal("wrong count")
	}
	if pts[0] != (Point{0, 0}) || pts[1] != (Point{0, 1}) || pts[2] != (Point{1, 0}) {
		t.Fatalf("ordering wrong: %v", pts[:3])
	}
}

func TestEmptyPermutation(t *testing.T) {
	if len(Permutation(nil, Hilbert)) != 0 {
		t.Error("empty input should give empty permutation")
	}
}

func BenchmarkHilbertPermutation20k(b *testing.B) {
	// ~20k points: the paper's source/receiver grid scale (217×120=26040)
	pts := GridPoints(160, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Permutation(pts, Hilbert)
	}
}
