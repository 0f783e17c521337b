// Command benchreport produces and gates the repo's deterministic
// metrics. `benchreport run` executes the curated workload set (the
// workloads behind the paper's §6–§7 tables) and writes a
// schema-versioned JSON report of what they compute — no wall-clock
// value; `benchreport compare` diffs two reports and exits non-zero when
// any gated metric regresses past the threshold — the check CI runs
// against the committed BENCH_baseline.json.
//
// Usage:
//
//	benchreport run [-o BENCH.json] [-label NAME] [-profile short|smoke]
//	benchreport compare [-threshold 0.10] OLD.json NEW.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchreport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:])
	case "compare":
		compareCmd(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "benchreport: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchreport run [-o FILE] [-label NAME] [-profile short|smoke]
  benchreport compare [-threshold F] OLD.json NEW.json`)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	out := fs.String("o", "BENCH.json", "output report path")
	label := fs.String("label", "dev", "run label (e.g. ci, baseline)")
	profile := fs.String("profile", "short", "workload profile: short or smoke")
	fs.Parse(args)

	p, err := benchreport.Profiles(*profile)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchreport: running %s profile...\n", p.Name)
	rep, err := benchreport.Run(*label, p)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteFile(*out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %d metrics to %s (sha %.12s)\n",
		len(rep.Metrics), *out, rep.GitSHA)
}

func compareCmd(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.10, "relative regression threshold for gated metrics")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
		os.Exit(2)
	}
	oldR, err := benchreport.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	newR, err := benchreport.ReadFile(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	res, err := benchreport.Compare(oldR, newR, benchreport.CompareOptions{Threshold: *threshold})
	if err != nil {
		fatal(err)
	}
	res.Format(os.Stdout)
	if !res.OK() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchreport: %s\n",
		strings.TrimPrefix(err.Error(), "benchreport: "))
	os.Exit(1)
}
