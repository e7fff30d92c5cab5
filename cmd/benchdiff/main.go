// Command benchdiff compares two benchjson trajectories and exits
// nonzero when the new one regresses against the baseline. Wall times
// are gated on host-normalized ns/op ratios (a uniformly slower machine
// cancels out); ops counts, modeled times, and histogram summaries are
// deterministic, so any drift there is reported regardless of noise.
// `make bench-gate` runs it as `benchdiff BENCH_seed.json BENCH_head.json`.
//
// With -runs it instead reads committed `_perfbench` run files
// (BENCH_prN.json) and, per file, workload and metric of the
// BENCHMARK.json in the working directory, prints each side's median and
// quartiles and the pairs won, as one markdown table per file. Given two
// or more files, it then prints each workload's trajectory: the change
// side's median of every end-to-end metric, one column per file.
//
// Usage:
//
//	benchdiff [-max-ratio 1.6] [-max-model-ratio 1.05] [-min-wall-ms 1] old.json new.json
//	benchdiff -runs BENCH_pr20.json BENCH_pr21.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gbpolar/internal/bench"
)

func main() {
	maxRatioF := flag.Float64("max-ratio", 0, "host-normalized ns/op ratio gate (0 = default 1.6)")
	maxModelF := flag.Float64("max-model-ratio", 0, "deterministic modeled-seconds ratio gate (0 = default 1.05)")
	minWallF := flag.Int64("min-wall-ms", 0, "skip the ns/op gate for kernels faster than this (0 = default 1ms)")
	runsF := flag.Bool("runs", false, "summarize the given _perfbench run files against ./BENCHMARK.json instead of diffing two trajectories")
	flag.Parse()
	if *runsF {
		if flag.NArg() == 0 {
			fatal(fmt.Errorf("usage: benchdiff -runs BENCH_prN.json..."))
		}
		var def benchmarkDef
		if err := readJSON("BENCHMARK.json", &def); err != nil {
			fatal(err)
		}
		var files [][]run
		for _, path := range flag.Args() {
			var runs []run
			if err := readJSON(path, &runs); err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n\n", path)
			writeRunsReport(os.Stdout, def, runs)
			fmt.Println()
			files = append(files, runs)
		}
		if len(files) >= 2 {
			writeTrajectory(os.Stdout, def, flag.Args(), files)
		}
		return
	}
	if flag.NArg() != 2 {
		fatal(fmt.Errorf("usage: benchdiff [flags] old.json new.json"))
	}

	old, err := readTrajectory(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	head, err := readTrajectory(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	d := bench.DiffTrajectories(old, head, bench.DiffOptions{
		MaxKernelRatio: *maxRatioF,
		MaxModelRatio:  *maxModelF,
		MinWallNs:      *minWallF * 1e6,
	})
	for _, n := range d.Notes {
		fmt.Printf("note: %s\n", n)
	}
	// Explicit membership delta: kernels present in only one trajectory,
	// so a coverage change never hides inside the note stream.
	if len(d.Added) > 0 {
		fmt.Printf("added kernels (%d, only in %s):\n", len(d.Added), flag.Arg(1))
		for _, name := range d.Added {
			fmt.Printf("  + %s\n", name)
		}
	}
	if len(d.Removed) > 0 {
		fmt.Printf("removed kernels (%d, only in %s):\n", len(d.Removed), flag.Arg(0))
		for _, name := range d.Removed {
			fmt.Printf("  - %s\n", name)
		}
	}
	fmt.Printf("host ratio %.3fx (%s -> %s)\n", d.HostRatio, old.Label, head.Label)
	if len(d.Regressions) > 0 {
		for _, r := range d.Regressions {
			fmt.Printf("REGRESSION %s\n", r)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) vs %s\n", len(d.Regressions), flag.Arg(0))
		os.Exit(1)
	}
	fmt.Printf("ok: %d kernels, no regressions vs %s\n", len(head.Kernels), flag.Arg(0))
}

func readTrajectory(path string) (*bench.Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := bench.ReadTrajectory(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
