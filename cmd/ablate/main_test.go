package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/seismic"
)

// TestSolversAblationSmoke: the LSQR-vs-CGLS table builds its problem
// through the pipeline builder and prints a row per solver per budget.
func TestSolversAblationSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := solversAblation(&out, seismic.Options{Geom: seismic.DefaultGeometry()}); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"lsqr", "cgls"} {
		if n := strings.Count(out.String(), solver+" "); n != 2 {
			t.Errorf("%d %s rows, want 2 (10 and 30 iterations):\n%s", n, solver, out.String())
		}
	}
}

// TestCompressorsAblationSmoke: on the default survey's 96×60 matrix
// (2×2 tiles of 48), one row per compressor with its ranks and
// compression ratio, every tile within the accuracy it was compressed
// to, and RRQR's ranks above SVD's. The time column is not asserted.
func TestCompressorsAblationSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := compressorsAblation(&out, seismic.Options{Geom: seismic.DefaultGeometry()}); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		"     svd         28      18.25        0.92x              4/4 ",
		"    rrqr         30      19.25        0.86x              4/4 ",
	} {
		n := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, row) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d rows %q, want 1:\n%s", n, row, out.String())
		}
	}
}
