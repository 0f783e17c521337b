package benchreport

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// Threshold is the relative change treated as a regression for gated
	// metrics (default 0.10, the ISSUE's >10% rule).
	Threshold float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.Threshold == 0 {
		o.Threshold = 0.10
	}
	return o
}

// Delta is one metric's old-vs-new comparison.
type Delta struct {
	Name      string
	Unit      string
	Direction string
	Old, New  float64
	// Change is the signed relative change (new−old)/|old|; NaN when the
	// metric is missing on either side.
	Change float64
	// Gated reports whether the regression rule applied.
	Gated bool
	// Regressed reports whether the gate tripped.
	Regressed bool
	// Note carries "missing in old/new" annotations.
	Note string
}

// CompareResult is the full diff of two reports.
type CompareResult struct {
	Deltas []Delta
	// Regressions lists the gated metrics that tripped, worst first.
	Regressions []string
}

// OK reports whether the gate passed.
func (r *CompareResult) OK() bool { return len(r.Regressions) == 0 }

// Compare diffs two reports. A gated metric regresses when it moves
// against its direction by more than the threshold; a gated metric
// present in old but missing in new also regresses (silently dropping a
// measurement must not pass the gate).
func Compare(oldR, newR *Report, opts CompareOptions) (*CompareResult, error) {
	if oldR.Schema != newR.Schema {
		return nil, fmt.Errorf("benchreport: schema mismatch: %q vs %q", oldR.Schema, newR.Schema)
	}
	opts = opts.withDefaults()
	res := &CompareResult{}
	seen := map[string]bool{}
	for _, om := range oldR.Metrics {
		seen[om.Name] = true
		d := Delta{Name: om.Name, Unit: om.Unit, Direction: om.Direction, Old: om.Value}
		nm := newR.Metric(om.Name)
		if nm == nil {
			d.Change = math.NaN()
			d.Note = "missing in new"
			if om.Gate {
				d.Gated, d.Regressed = true, true
				res.Regressions = append(res.Regressions, om.Name)
			}
			res.Deltas = append(res.Deltas, d)
			continue
		}
		d.New = nm.Value
		d.Gated = om.Gate
		d.Change = relChange(om.Value, nm.Value)
		if om.Gate && regressed(om.Direction, om.Value, nm.Value, opts.Threshold) {
			d.Regressed = true
			res.Regressions = append(res.Regressions, om.Name)
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, nm := range newR.Metrics {
		if !seen[nm.Name] {
			res.Deltas = append(res.Deltas, Delta{
				Name: nm.Name, Unit: nm.Unit, Direction: nm.Direction,
				New: nm.Value, Change: math.NaN(), Note: "new metric",
			})
		}
	}
	sort.Slice(res.Deltas, func(i, j int) bool { return res.Deltas[i].Name < res.Deltas[j].Name })
	sort.Slice(res.Regressions, func(i, j int) bool {
		return worse(res, res.Regressions[i]) > worse(res, res.Regressions[j])
	})
	return res, nil
}

func worse(r *CompareResult, name string) float64 {
	for _, d := range r.Deltas {
		if d.Name == name {
			if math.IsNaN(d.Change) {
				return math.Inf(1)
			}
			return math.Abs(d.Change)
		}
	}
	return 0
}

// relChange returns (new−old)/|old|, with the 0→0 case mapped to 0 and
// 0→x to +Inf-like sentinel via math.Inf.
func relChange(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return math.Inf(sign(newV))
	}
	return (newV - oldV) / math.Abs(oldV)
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// regressed applies the direction-aware threshold rule.
func regressed(direction string, oldV, newV, threshold float64) bool {
	c := relChange(oldV, newV)
	if math.IsNaN(c) {
		return true
	}
	switch direction {
	case Lower:
		return c > threshold
	case Higher:
		return c < -threshold
	}
	return false
}

// Format writes a human-readable diff table followed by the verdict.
func (r *CompareResult) Format(w io.Writer) {
	fmt.Fprintf(w, "%-32s %14s %14s %9s  %s\n", "metric", "old", "new", "change", "status")
	for _, d := range r.Deltas {
		status := "info"
		switch {
		case d.Regressed:
			status = "REGRESSED"
		case d.Gated:
			status = "ok"
		}
		change := "n/a"
		if !math.IsNaN(d.Change) && !math.IsInf(d.Change, 0) {
			change = fmt.Sprintf("%+.1f%%", d.Change*100)
		}
		note := ""
		if d.Note != "" {
			note = " (" + d.Note + ")"
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %9s  %s%s\n",
			d.Name, d.Old, d.New, change, status, note)
	}
	if r.OK() {
		fmt.Fprintf(w, "\nPASS: no gated metric regressed\n")
	} else {
		fmt.Fprintf(w, "\nFAIL: %d gated metric(s) regressed: %v\n", len(r.Regressions), r.Regressions)
	}
}
