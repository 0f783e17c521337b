//go:build linux && amd64

package cfloat

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestGemvDispatchMatchesHost holds Gemv's start-up pick to the kernel's
// own report of the CPU: the AVX assembly exactly when /proc/cpuinfo lists
// avx among the flags (Linux lists it only when it also saves the YMM
// state). A detection bug that fell back to the Go loops would slow every
// product and fail no other test.
func TestGemvDispatchMatchesHost(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		avx := slices.Contains(strings.Fields(val), "avx")
		if useAVX != avx {
			t.Fatalf("Gemv picked AVX = %v; /proc/cpuinfo lists avx = %v", useAVX, avx)
		}
		return
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
