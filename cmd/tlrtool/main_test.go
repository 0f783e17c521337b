package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/opstore"
	"repro/internal/seismic"
	"repro/internal/tlrio"
)

// TestCompressInfoOpenStore checks the tool's file is the served
// format: -compress writes a small survey's kernel, -info reads its
// stats back from the index, and opstore opens the same file.
func TestCompressInfoOpenStore(t *testing.T) {
	opts := seismic.Options{
		Geom: seismic.Geometry{
			NsX: 4, NsY: 3, NrX: 3, NrY: 3,
			Dx: 20, Dy: 20, SrcDepth: 10, RecDepth: 300,
		},
		Nt: 32, Dt: 0.004,
	}
	path := filepath.Join(t.TempDir(), "k.tlrp")
	var out bytes.Buffer
	if err := compress(&out, path, opts, 4, 1e-3); err != nil {
		t.Fatal(err)
	}
	st, err := opstore.OpenFile(path, 1<<20)
	if err != nil {
		t.Fatalf("opstore cannot open tlrtool's output: %v", err)
	}
	defer st.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := tlrio.OpenPaged(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	last := len(pf.Mats) - 1
	m, err := st.Matrix(last)
	if err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := info(&out, path); err != nil {
		t.Fatal(err)
	}
	// the last matrix always gets a row; its stats must be the store's
	row := fmt.Sprintf("%10.2f %6dx%-4d %7d %10d %10.1f %11.2fx\n",
		pf.Mats[last].Freq, m.M, m.N, m.NB, m.MaxRank(), m.AvgRank(), m.CompressionRatio())
	head := fmt.Sprintf("%d frequency matrices", len(pf.Mats))
	if got := out.String(); !strings.Contains(got, head) || !strings.Contains(got, row) {
		t.Fatalf("info output lacks %q or %q:\n%s", head, row, got)
	}
	if err := info(&out, filepath.Join(t.TempDir(), "missing.tlrp")); err == nil {
		t.Error("info on a missing file: no error")
	}
}
