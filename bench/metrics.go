package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list. Bound is only set for end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile mirrors BENCHMARK.json, the single declaration of the
// metric names, units, directions and bounds; the program reads it so
// that the names it prints cannot drift from the names the driver and
// -repeat check.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics declared", path)
	}
	return &bf, nil
}

// selectMetrics returns the measured value of every declared metric, in
// declaration order. An undeclared measured name is a bug in the
// workload. A declared end-to-end metric that was not measured is an
// error; a per-layer metric a workload does not exercise (opstore
// counters on solve-dram, serve.* outside serve-mix) reads 0.
func selectMetrics(defs []metricDef, m metrics, perLayer bool) ([]float64, error) {
	declared := map[string]bool{}
	vals := make([]float64, len(defs))
	for i, d := range defs {
		declared[d.Name] = true
		v, ok := m[d.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		vals[i] = v
	}
	for name := range m {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return vals, nil
}
