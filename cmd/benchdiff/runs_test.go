package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// testRun builds one run record with the given metric values.
func testRun(side, workload string, seed, failed int64, metrics map[string]float64) run {
	r := run{Side: side, Workload: workload, Seed: seed}
	r.Result.Correct = true
	r.Result.Attempted = 10
	r.Result.Failed = failed
	r.Result.Metrics = map[string]struct{ Value float64 }{}
	for k, v := range metrics {
		r.Result.Metrics[k] = struct{ Value float64 }{v}
	}
	return r
}

// TestRunsReportRows: medians, quartiles, the change of the medians and
// the pairs won follow each metric's better direction; a run without its
// pair counts in its side's quartiles but not in the wins; a metric no
// run reports gets no row; failures are summed per side.
func TestRunsReportRows(t *testing.T) {
	var def benchmarkDef
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "atoms_per_s", "better": "higher"},
		{"name": "latency_ms.p50", "better": "lower"},
		{"name": "setup_s", "better": "lower"}]}`), &def); err != nil {
		t.Fatal(err)
	}
	runs := []run{
		testRun("parent", "w", 1, 0, map[string]float64{"atoms_per_s": 100, "latency_ms.p50": 10}),
		testRun("change", "w", 1, 0, map[string]float64{"atoms_per_s": 110, "latency_ms.p50": 11}),
		testRun("change", "w", 2, 1, map[string]float64{"atoms_per_s": 130, "latency_ms.p50": 9}),
		testRun("parent", "w", 2, 0, map[string]float64{"atoms_per_s": 120, "latency_ms.p50": 12}),
		testRun("parent", "w", 3, 0, map[string]float64{"atoms_per_s": 140, "latency_ms.p50": 8}),
	}
	runs[4].Result.Correct = false
	var b strings.Builder
	writeRunsReport(&b, def, runs)
	got := b.String()
	for _, want := range []string{
		"| w | 0 | atoms_per_s | 120 [110, 130] | 120 [115, 125] | +0.0 % | 2/2 |",
		"| w | 0 | latency_ms.p50 | 10 [9, 11] | 10 [9.5, 10.5] | +0.0 % | 1/2 |",
		"| w | 0 | failed of attempted (incorrect runs) | 0 of 30 (1) | 1 of 20 (0) | | |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks row\n%s\ngot:\n%s", want, got)
		}
	}
	if strings.Contains(got, "setup_s") {
		t.Errorf("report has a row for a metric no run reports:\n%s", got)
	}
}

// TestRunsReportReproducesCommittedTable: read back, BENCH_pr20.json
// gives the serve-closed rows EXPERIMENTS.md reports for it.
func TestRunsReportReproducesCommittedTable(t *testing.T) {
	var def benchmarkDef
	var runs []run
	for path, v := range map[string]any{"../../BENCHMARK.json": &def, "../../BENCH_pr20.json": &runs} {
		if err := readJSON(path, v); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	writeRunsReport(&b, def, runs)
	for _, want := range []string{
		"| serve-closed | 0 | atoms_per_s | 21.98k [21.15k, 22.14k] | 25.45k [24.76k, 26.13k] | +15.8 % | 10/10 |",
		"| serve-closed | 0 | latency_ms.p50 | 27.06 [26.73, 28.42] | 26.58 [26.13, 27.2] | -1.8 % | 8/10 |",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report lacks row\n%s\ngot:\n%s", want, b.String())
		}
	}
}

// TestTrajectoryAcrossCommittedPoints: given the six committed points in
// order, the trajectory's warm-mpi2 row for latency_ms.p50 holds each
// file's change-side median of its untraced runs.
func TestTrajectoryAcrossCommittedPoints(t *testing.T) {
	var def benchmarkDef
	if err := readJSON("../../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	var files [][]run
	for n := 20; n <= 25; n++ {
		name := fmt.Sprintf("BENCH_pr%d.json", n)
		var runs []run
		if err := readJSON("../../"+name, &runs); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		files = append(files, runs)
	}
	var b strings.Builder
	writeTrajectory(&b, def, names, files)
	got := b.String()
	// The table follows the workload's title line and ends at a blank line.
	_, table, _ := strings.Cut(got, "warm-mpi2: change-side medians, untraced runs\n\n")
	table, _, _ = strings.Cut(table, "\n\n")
	for _, want := range []string{
		"| metric | BENCH_pr20.json | BENCH_pr21.json | BENCH_pr22.json | BENCH_pr23.json | BENCH_pr24.json | BENCH_pr25.json |",
		"| latency_ms.p50 | 81.92 | 79.3 | 78.9 | 55.71 | 50.39 | 19.2 |",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("warm-mpi2 trajectory lacks row\n%s\ngot:\n%s", want, got)
		}
	}
}
