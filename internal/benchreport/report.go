// Package benchreport runs a curated set of the repo's workloads and
// records what they compute, not how long they take: model-predicted
// cycle and traffic counts, layout bytes, compression ratios,
// solution-quality numbers (NMSE), failover, cache and allocation counts.
// A Report is the schema-versioned JSON cmd/benchreport emits and CI
// diffs against the committed BENCH_baseline.json; every row is a
// deterministic function of the tree, tagged with a direction and
// whether the regression gate applies to it. Wall-clock measurement is
// bench/'s job (BENCHMARK.json).
package benchreport

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Schema identifies the report layout. Bump on incompatible changes;
// Compare refuses to diff mismatched schemas.
const Schema = "repro-bench/1"

// Directions a metric can improve in.
const (
	// Lower marks metrics where smaller is better (ns/op, cycles, NMSE).
	Lower = "lower"
	// Higher marks metrics where bigger is better (GB/s, GFlop/s, ratios).
	Higher = "higher"
)

// Metric is one measured quantity.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Direction is Lower or Higher.
	Direction string `json:"direction"`
	// Gate marks the metric as subject to the CI regression gate. An
	// ungated row (today only lsqr.iters, where fewer is not worse) is
	// reported by compare and never fails it.
	Gate bool `json:"gate"`
}

// Host describes the machine a report was produced on.
type Host struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
}

// Report is the full bench artifact.
type Report struct {
	Schema string `json:"schema"`
	// Label names the run (e.g. "PR2", "baseline").
	Label string `json:"label"`
	// Profile is the profile the run used ("short" or "smoke").
	Profile string `json:"profile"`
	// GitSHA is the commit the run measured (best effort; empty outside a
	// git checkout).
	GitSHA string `json:"git_sha,omitempty"`
	// GeneratedUnix is the report creation time.
	GeneratedUnix int64    `json:"generated_unix"`
	Host          Host     `json:"host"`
	Metrics       []Metric `json:"metrics"`
}

// Metric returns the named metric, or nil.
func (r *Report) Metric(name string) *Metric {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

// Validate checks structural invariants of a report.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", r.Schema, Schema)
	}
	seen := make(map[string]bool, len(r.Metrics))
	for _, m := range r.Metrics {
		if m.Name == "" {
			return fmt.Errorf("metric with empty name")
		}
		if seen[m.Name] {
			return fmt.Errorf("duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
		if m.Direction != Lower && m.Direction != Higher {
			return fmt.Errorf("metric %q has direction %q", m.Name, m.Direction)
		}
	}
	return nil
}

// CurrentHost describes the running machine.
func CurrentHost() Host {
	return Host{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// GitSHA returns the current HEAD commit, or "" when unavailable.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// NewReport stamps an empty report with schema, host, git, and time.
func NewReport(label, profile string) *Report {
	return &Report{
		Schema:        Schema,
		Label:         label,
		Profile:       profile,
		GitSHA:        GitSHA(),
		GeneratedUnix: time.Now().Unix(),
		Host:          CurrentHost(),
	}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchreport: parsing %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("benchreport: %s: %w", path, err)
	}
	return &r, nil
}
