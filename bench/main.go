// Command bench is the repository's memory-wall benchmark: four sized
// workloads (solve-survey, solve-dram, solve-ooc, serve-mix), the
// end-to-end metrics a user of the system sees and the per-layer metrics
// that explain them, all declared in BENCHMARK.json. README.md in this
// directory documents the workloads, the metric glossary and the layer →
// end-to-end interaction table.
//
//	go run ./bench -workload solve-dram -seed 1 -seconds 16 -trace 0
//	go run ./bench -workload solve-dram -seed 1 -trace 1 -out run.json
//	go run ./bench -repeat a.json b.json
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) wraps the public layer boundaries from this directory's own
// files and prints the per-layer metrics. Every result is checked
// against a reference; an incorrect one exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// buildDir, relative to the repository root the command runs from, is
// where run.sh builds and where solve-ooc writes its store file.
const buildDir = ".bench_build"

// holdOutSeed is the seed no sizing or tuning run of this benchmark
// used; a change that claims a gain repeats its comparison on it
// (choosing-metrics guide, section 6).
const holdOutSeed = 20230911

// runConfig is what a workload receives: the seed its inputs derive
// from, how long to measure, whether to trace, and where it may write.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	tmpDir  string
}

// setups is how often a run sets up: three times in a full untraced run,
// so that setup_s is a median, once otherwise.
func (c runConfig) setups() int {
	if c.trace || c.smoke {
		return 1
	}
	return 3
}

// setUp builds a workload's state n times, dropping every build but the
// last, and returns the last with the seconds each build took.
func setUp[T any](n int, build func() (T, error), drop func(T)) (T, []float64, error) {
	var state T
	var secs []float64
	for rep := 0; rep < n; rep++ {
		if rep > 0 {
			drop(state)
			var zero T
			state = zero
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if state, err = build(); err != nil {
			return state, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return state, secs, nil
}

// runResult is what a workload returns.
type runResult struct {
	metrics   metrics
	attempted int
	failed    int
	// counts are the run's deterministic sizes and sample counts,
	// recorded in the output next to the seed.
	counts map[string]int64
	// notes are printed verbatim (what a number does and does not
	// measure).
	notes []string
	spans []span
}

func newRunResult() *runResult {
	return &runResult{metrics: metrics{}, counts: map[string]int64{}}
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one incorrect or failed unit of work.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	r.note("FAILED: "+format, args...)
}

type workload struct {
	name string
	run  func(cfg runConfig) (*runResult, error)
}

var workloads = []workload{
	{"solve-survey", runSolveSurvey},
	{"solve-dram", runSolveDRAM},
	{"solve-ooc", runSolveOOC},
	{"serve-mix", runServeMix},
}

// outputRecord is one line of the -out file and one run of a -repeat
// result set.
type outputRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Scale      string             `json:"scale"`
	Seconds    float64            `json:"seconds"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GitSHA     string             `json:"git_sha"`
	Counts     map[string]int64   `json:"counts"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
}

func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: solve-survey, solve-dram, solve-ooc or serve-mix")
	seed := fs.Int64("seed", 1, "seed every input derives from (hold-out seed: "+strconv.Itoa(holdOutSeed)+")")
	seconds := fs.Float64("seconds", 16, "sizes the measured loop: a fixed number of solves or jobs that takes about this long on a 2-vCPU host")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", "", "append the run as one JSON line to this file; a traced run also writes <out>.trace.json")
	scale := fs.String("scale", "full", "full, or smoke for the seconds-long test sizes")
	repeat := fs.Bool("repeat", false, "compare two result sets: -repeat a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *repeat {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -repeat takes two result files")
			return 2
		}
		return runRepeat(bf, fs.Arg(0), fs.Arg(1))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*scale != "full" && *scale != "smoke") || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, scale %q or trace %d\n", *name, *scale, *trace)
		fs.Usage()
		return 2
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	tmpDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmpDir)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *scale == "smoke", tmpDir: tmpDir}
	start := time.Now()
	res, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	defs := bf.EndToEnd
	if cfg.trace {
		defs = bf.PerLayer
		if !cfg.smoke {
			if err := fillFromSmoke(res, wl, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
				return 1
			}
		}
	}
	vals, err := selectMetrics(defs, res.metrics, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}

	rec := outputRecord{
		Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, Scale: *scale, Seconds: cfg.seconds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GitSHA: gitSHA(),
		Counts: res.counts, Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]float64{},
	}
	fmt.Printf("# workload %s seed %d trace %d scale %s seconds %g (whole run %.1f s)\n",
		wl.name, cfg.seed, *trace, *scale, cfg.seconds, time.Since(start).Seconds())
	fmt.Printf("# %s GOMAXPROCS %d cpus %d git %s\n", rec.GoVersion, rec.GOMAXPROCS, runtime.NumCPU(), rec.GitSHA)
	fmt.Printf("# counts %v\n", res.counts)
	if runtime.NumCPU() == 1 {
		fmt.Println("# cpus == 1: parallel metrics (tlr.batched.gbps, mdc.workers1_ms against mdc.apply_ms_p50) are not meaningful")
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]jsonMetric{}}
	for i, d := range defs {
		fmt.Printf("%s %s %s\n", d.Name, strconv.FormatFloat(vals[i], 'g', -1, 64), d.Unit)
		rec.Metrics[d.Name] = vals[i]
		last.Metrics[d.Name] = jsonMetric{vals[i], d.Unit}
	}

	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if cfg.trace {
			if err := writeTrace(*out+".trace.json", res.spans); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// fillFromSmoke gives the per-layer metrics the workload does not
// exercise a measured value: the other workloads run traced at the smoke
// scale, and a metric still missing is taken from the first of them that
// measured it (opstore.* from solve-ooc, serve.* from serve-mix, fft.*
// from solve-survey …). Such a value says what the layer costs at a toy
// size; it is listed in a note and is not comparable with the value the
// layer's own workload reports. Their checks count like the workload's.
func fillFromSmoke(res *runResult, wl *workload, cfg runConfig) error {
	for _, other := range workloads {
		if other.name == wl.name {
			continue
		}
		sub, err := other.run(runConfig{seed: cfg.seed, trace: true, smoke: true, tmpDir: cfg.tmpDir})
		if err != nil {
			return fmt.Errorf("smoke-scale %s: %w", other.name, err)
		}
		res.attempted += sub.attempted
		res.failed += sub.failed
		res.notes = append(res.notes, sub.notes...)
		var filled []string
		for name, v := range sub.metrics {
			if _, ok := res.metrics[name]; !ok {
				res.metrics[name] = v
				filled = append(filled, name)
			}
		}
		sort.Strings(filled)
		res.note("from the smoke-scale %s run: %s", other.name, strings.Join(filled, " "))
	}
	return nil
}

func appendRecord(path string, rec outputRecord) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
