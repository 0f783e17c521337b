package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seismic"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name         string
		iters        int
		shards       int
		ckptInterval int
		storeBudget  int64
		wantErr      string // "" means the flags must be accepted
	}{
		{"defaults", 30, 8, 5, 0, ""},
		{"minimal", 1, 1, 1, 0, ""},
		{"explicit budget", 30, 8, 5, 1 << 20, ""},
		{"zero iters", 0, 8, 5, 0, "-iters"},
		{"negative iters", -4, 8, 5, 0, "-iters"},
		{"zero shards", 30, 0, 5, 0, "-shards"},
		{"negative shards", 30, -2, 5, 0, "-shards"},
		{"zero ckpt interval", 30, 8, 0, 0, "-ckpt-interval"},
		{"negative ckpt interval", 30, 8, -5, 0, "-ckpt-interval"},
		{"negative store budget", 30, 8, 5, -1, "-store-budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.iters, tc.shards, tc.ckptInterval, tc.storeBudget)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%d, %d, %d, %d) = %v, want nil",
						tc.iters, tc.shards, tc.ckptInterval, tc.storeBudget, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%d, %d, %d, %d) = nil, want error naming %s",
					tc.iters, tc.shards, tc.ckptInterval, tc.storeBudget, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %s", err, tc.wantErr)
			}
		})
	}
}

// TestStoreDemoSmoke drives -store through the pipeline builder on the
// default 12×8 / 10×6 survey (2×2 tiles at nb 48): the page file lands
// at the requested path, every frequency is swept under the default
// quarter budget, and the estimator's bound holds on the measured error.
func TestStoreDemoSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "band.tlrp")
	var out bytes.Buffer
	if err := storeDemo(&out, seismic.Options{Geom: seismic.DefaultGeometry()}, path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("-store-path file not kept: %v", err)
	}
	for _, want := range []string{"44 frequency slices", "swept 44 products", "(25% of operator)", "bound holds: true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestFaultDemoSmoke drives -faultdemo on the default survey for a few
// iterations: the default schedule is survived, a schedule that kills
// every shard exhausts the restarts and is reported, and a malformed
// schedule is rejected before any dataset is built.
func TestFaultDemoSmoke(t *testing.T) {
	cases := []struct {
		name     string
		schedule string
		shards   int
		want     string // in the output, or in the error when wantErr
		wantErr  bool
	}{
		{"default schedule", defaultFaults, 8, "shards alive after run: 6 of 8", false},
		{"every shard killed", "shard0:die@1,shard1:die@1", 2, "gave up after 4 restarts", true},
		{"malformed schedule", "shard2:explode@3", 8, `-faults "shard2:explode@3"`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := faultDemo(&out, seismic.Options{Geom: seismic.DefaultGeometry()}, 4, tc.shards, tc.schedule, 1)
			got := out.String()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("faultDemo(%q) = nil, want an error naming %q; output:\n%s", tc.schedule, tc.want, got)
				}
				got = err.Error()
			} else if err != nil {
				t.Fatalf("faultDemo(%q): %v", tc.schedule, err)
			}
			if !strings.Contains(got, tc.want) {
				t.Errorf("faultDemo(%q): %q lacks %q", tc.schedule, got, tc.want)
			}
		})
	}
}
