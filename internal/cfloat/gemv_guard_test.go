//go:build linux && amd64

package cfloat_test

import (
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/cfloat"
	"repro/internal/testkit"
)

// guarded returns a copy of src whose last element ends where a PROT_NONE
// page begins, so reading or writing one element past it faults.
func guarded(t *testing.T, src []complex64) []complex64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (len(src)*8+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory; nothing to report
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	b := mem[size-page-len(src)*8 : size-page]
	s := unsafe.Slice((*complex64)(unsafe.Pointer(unsafe.SliceData(b))), len(src))
	copy(s, src)
	return s
}

// TestGemvReadsNothingPastItsSlices places a, x and y each flush against
// a PROT_NONE page and runs every row remainder of the forward kernel's
// 8/4/2/1-row blocks and every column remainder of the adjoint's
// 8/4/2/1-column passes (the 8- and 4-column ones two rows at a time,
// then the odd row): m and n run over 1…16, every m mod 8 and n mod 8
// with and without a full block, and both parities of m. Both
// directions, with beta 1 so y is read too: a load or store past any
// slice faults the test binary. Axpy's x and y go flush against the page
// the same way at lengths 1–9, every remainder of its two-element pass.
// Results are also held to the pure-Go loops on ordinary memory.
func TestGemvReadsNothingPastItsSlices(t *testing.T) {
	rng := testkit.NewRNG(7)
	for _, tr := range []cfloat.Trans{cfloat.NoTrans, cfloat.ConjTrans} {
		for m := 1; m <= 16; m++ {
			for n := 1; n <= 16; n++ {
				lda := m + n%2
				xlen, ylen := n, m
				if tr == cfloat.ConjTrans {
					xlen, ylen = m, n
				}
				a := testkit.Vec(rng, (n-1)*lda+m)
				x := testkit.Vec(rng, xlen)
				want := testkit.Vec(rng, ylen)
				y := guarded(t, want)
				cfloat.Gemv(tr, m, n, 0.5-1i, guarded(t, a), lda, guarded(t, x), 1, y)
				cfloat.GemvGo(tr, m, n, 0.5-1i, a, lda, x, 1, want)
				if i := sameBits(y, want); i >= 0 {
					t.Fatalf("%v m=%d n=%d: y[%d] = %v, the Go loops give %v", tr, m, n, i, y[i], want[i])
				}
			}
		}
	}
	for n := 1; n <= 9; n++ {
		x := testkit.Vec(rng, n)
		want := testkit.Vec(rng, n)
		y := guarded(t, want)
		cfloat.Axpy(0.5-1i, guarded(t, x), y)
		cfloat.AxpyGo(0.5-1i, x, want)
		if i := sameBits(y, want); i >= 0 {
			t.Fatalf("Axpy n=%d: y[%d] = %v, the Go loop gives %v", n, i, y[i], want[i])
		}
	}
}
