package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"gbpolar/internal/stats"
)

// run is one element of a committed BENCH_prN.json: a `_perfbench`
// result line and the side of the pair ("parent" or "change") it ran on.
type run struct {
	Side, Workload string
	Seed           int64
	Trace          int
	Result         struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct{ Value float64 }
	}
}

// benchmarkDef holds the metrics BENCHMARK.json declares, each with the
// direction that is better ("lower" or "higher").
type benchmarkDef struct {
	EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Better string } `json:"per_layer"`
}

// writeRunsReport prints a markdown table over runs. Per workload and
// trace setting, each declared metric the runs report gets a row: each
// side's median [first, third quartile], the change of the medians, and
// the pairs (one seed's parent and change runs) where the change is on
// the better side. A last row per group sums each side's failed and
// attempted operations and counts its runs whose energies failed the
// check.
func writeRunsReport(w io.Writer, def benchmarkDef, runs []run) {
	fmt.Fprint(w, "| workload | trace | metric | parent | change | Δ median | wins |\n|---|---|---|---|---|---|---|\n")
	group := func(r run) string { return fmt.Sprintf("%s | %d", r.Workload, r.Trace) }
	side := func(r run) int {
		if r.Side == "change" {
			return 1
		}
		return 0
	}
	var groups []string
	for _, r := range runs {
		if !slices.Contains(groups, group(r)) {
			groups = append(groups, group(r))
		}
	}
	for _, g := range groups {
		for _, m := range slices.Concat(def.EndToEnd, def.PerLayer) {
			var vals [2][]float64
			bySeed := map[int64][2][]float64{}
			for _, r := range runs {
				v, ok := r.Result.Metrics[m.Name]
				if !ok || group(r) != g {
					continue
				}
				s := side(r)
				vals[s] = append(vals[s], v.Value)
				p := bySeed[r.Seed]
				p[s] = append(p[s], v.Value)
				bySeed[r.Seed] = p
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			wins, pairs := 0, 0
			for _, p := range bySeed {
				if len(p[0]) == 1 && len(p[1]) == 1 {
					pairs++
					if d := p[1][0] - p[0][0]; d > 0 && m.Better == "higher" || d < 0 && m.Better == "lower" {
						wins++
					}
				}
			}
			pm, cm := stats.Percentile(vals[0], 50), stats.Percentile(vals[1], 50)
			delta := "—"
			if pm != 0 {
				delta = fmt.Sprintf("%+.1f %%", 100*(cm-pm)/math.Abs(pm))
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %d/%d |\n",
				g, m.Name, quartiles(vals[0]), quartiles(vals[1]), delta, wins, pairs)
		}
		var f [2][3]int64 // per side: failed, attempted, incorrect runs
		for _, r := range runs {
			if group(r) == g {
				s := side(r)
				f[s][0] += r.Result.Failed
				f[s][1] += r.Result.Attempted
				if !r.Result.Correct {
					f[s][2]++
				}
			}
		}
		fmt.Fprintf(w, "| %s | failed of attempted (incorrect runs) | %d of %d (%d) | %d of %d (%d) | | |\n",
			g, f[0][0], f[0][1], f[0][2], f[1][0], f[1][1], f[1][2])
	}
}

// writeTrajectory prints one markdown table per workload, in order of
// first appearance: a row per end-to-end metric and a column per file,
// in the order given, holding the median of the change side's untraced
// runs in that file ("—" where it has none).
func writeTrajectory(w io.Writer, def benchmarkDef, names []string, files [][]run) {
	var workloads []string
	for _, runs := range files {
		for _, r := range runs {
			if !slices.Contains(workloads, r.Workload) {
				workloads = append(workloads, r.Workload)
			}
		}
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s: change-side medians, untraced runs\n\n| metric |", wl)
		for _, name := range names {
			fmt.Fprintf(w, " %s |", name)
		}
		fmt.Fprintf(w, "\n|---|%s\n", strings.Repeat("---|", len(names)))
		for _, m := range def.EndToEnd {
			fmt.Fprintf(w, "| %s |", m.Name)
			for _, runs := range files {
				var vals []float64
				for _, r := range runs {
					if v, ok := r.Result.Metrics[m.Name]; ok && r.Workload == wl && r.Side == "change" && r.Trace == 0 {
						vals = append(vals, v.Value)
					}
				}
				cell := "—"
				if len(vals) > 0 {
					cell = num(stats.Percentile(vals, 50))
				}
				fmt.Fprintf(w, " %s |", cell)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// quartiles formats the median and [first, third quartile] of xs.
func quartiles(xs []float64) string {
	return fmt.Sprintf("%s [%s, %s]", num(stats.Percentile(xs, 50)),
		num(stats.Percentile(xs, 25)), num(stats.Percentile(xs, 75)))
}

// num formats x to four significant digits, in thousands from 10⁴ up.
func num(x float64) string {
	if math.Abs(x) >= 1e4 {
		return fmt.Sprintf("%.2fk", x/1e3)
	}
	return fmt.Sprintf("%.4g", x)
}
