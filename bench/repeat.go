package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// readRecords reads a result set: the file -out appends to, one run per
// line.
func readRecords(path string) ([]outputRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []outputRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r outputRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// values collects one metric of one workload over the runs of a set.
func values(recs []outputRecord, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, v)
		}
	}
	return out
}

// worseBy is the share of the base a by which b is worse, in the
// metric's own direction (negative when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// runRepeat compares result set b with result set a (the base), metric
// by metric and workload by workload, against the bounds BENCHMARK.json
// fixes. It exits 1 when a metric is outside its bound.
func runRepeat(bf *benchmarkFile, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b []outputRecord
		if b, err = readRecords(pathB); err == nil {
			return compareSets(bf, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(bf *benchmarkFile, a, b []outputRecord) int {
	outside := 0
	row := func(w string, d metricDef, traced bool) {
		va, vb := values(a, w, traced, d.Name), values(b, w, traced, d.Name)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		ma, mb := median(va), median(vb)
		line := fmt.Sprintf("%-13s %-32s a %-12.6g b %-12.6g %-6s", w, d.Name, ma, mb, d.Unit)
		if ma != 0 {
			line += fmt.Sprintf(" b/a %.4f (base a, n %d/%d)", mb/ma, len(va), len(vb))
		}
		if d.Bound == 0 || ma == 0 {
			fmt.Println(line)
			return
		}
		spread := max(iqrShare(va), iqrShare(vb))
		verdict := "ok"
		switch {
		case spread > d.Bound && !allBetter(d, va, vb):
			verdict = "unresolved (spread > bound)"
		case worseBy(d, ma, mb) > d.Bound:
			verdict = "outside bound"
			outside++
		}
		fmt.Printf("%s spread %.1f%% bound %.0f%% %s\n", line, 100*spread, 100*d.Bound, verdict)
	}
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			row(w.Name, d, false)
		}
		for _, d := range bf.PerLayer {
			row(w.Name, d, true)
		}
	}
	if outside > 0 {
		fmt.Printf("%d metric(s) outside bound\n", outside)
		return 1
	}
	return 0
}
