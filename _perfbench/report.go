package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gbpolar/internal/gb"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its order
// and with its units; the self-test holds the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"atoms_per_s", "atoms/s"},
	{"alloc_mib_per_solve", "MiB"},
	{"peak_rss_mib", "MiB"},
	{"epol_relerr.max", "frac"},
}

var perLayer = []metricDef{
	{"host.ref_ms.p50", "ms"},
	{"wall_ms.p50", "ms"},
	{"latency_ms.p90", "ms"},
	{"samples", "count"},
	{"trace_overhead_frac", "frac"},
	{"trace.phase_coverage_frac", "frac"},
	{"molecule.parse_ms", "ms"},
	{"surface.build_ms", "ms"},
	{"surface.qpoints_per_atom", "qpoints/atom"},
	{"octree.build_ms", "ms"},
	{"gb.system_ms", "ms"},
	{"gb.approx_integrals_ms", "ms"},
	{"gb.push_ms", "ms"},
	{"gb.epol_aggregates_ms", "ms"},
	{"gb.approx_epol_ms", "ms"},
	{"gb.ops_per_atom", "ops/atom"},
	{"gb.ns_per_op", "ns/op"},
	{"gb.born_near_frac", "frac"},
	{"gb.epol_near_frac", "frac"},
	{"simmpi.collectives_per_solve", "count"},
	{"simmpi.kib_per_solve", "KiB"},
	{"simmpi.comm_ms", "ms"},
	{"critpath.comm_frac", "frac"},
	{"critpath.idle_frac", "frac"},
	{"supervise.attempts_per_job", "count"},
	{"supervise.checkpoints_per_job", "count"},
	{"fs.syncs_per_job", "count"},
	{"fs.renames_per_job", "count"},
	{"fs.write_kib_per_job", "KiB"},
	{"fs.busy_ms_per_job", "ms"},
	{"serve.ack_ms.p50", "ms"},
	{"serve.ack_ms.p90", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"tune.select_ms.p50", "ms"},
	{"tune.verify_runs_per_job", "count"},
	{"obs.trace_kib_per_job", "KiB"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_cycles_per_solve", "count"},
}

// report collects one run's metrics and its tally of operations.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string // the first few, for standard error
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result selects the end-to-end metrics, or with trace the per-layer
// ones. A per-layer metric of a layer the workload does not exercise
// reads 0.
func (r *report) result(trace bool) resultJSON {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultJSON{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricJSON{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// print writes every measured metric with its unit, end-to-end first.
func (r *report) print(w io.Writer, name string, cfg config) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v: %d attempted, %d failed, failed_frac %.4g\n",
		name, cfg.seed, cfg.seconds, cfg.trace, r.attempted, r.failed, frac(float64(r.failed), float64(r.attempted)))
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
}

// setupRepeats is how many times a run repeats its set-up: setup_s is the
// median, and the last repetition's state is the one measured.
const setupRepeats = 5

// setup times fn setupRepeats times, records the median as setup_s, and
// returns the last repetition's sample.
func (r *report) setup(norm *normalizer, fn func() error) (sample, error) {
	var secs []float64
	var s sample
	for i := 0; i < setupRepeats; i++ {
		var err error
		s = norm.time(func() { err = fn() })
		if err != nil {
			return s, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, s.normMs/1000)
	}
	r.values["setup_s"] = median(secs)
	return s, nil
}

// timings records a loop's normalized latency percentiles and
// throughput, with the raw wall and reference medians behind them.
// Sample k timed item[k], of atoms[item[k]] atoms; throughput takes each
// item at the mean of its middle half of latencies, so a stalled sample
// cannot move it.
func (r *report) timings(ss []sample, item, atoms []int) {
	norm, raw, ref := make([]float64, len(ss)), make([]float64, len(ss)), make([]float64, len(ss))
	byItem := make([][]float64, len(atoms))
	for k, s := range ss {
		norm[k], raw[k], ref[k] = s.normMs, s.rawMs, s.refMs
		byItem[item[k]] = append(byItem[item[k]], s.normMs)
	}
	r.values["latency_ms.p50"] = median(norm)
	r.values["latency_ms.p90"] = quantile(norm, 0.9)
	r.values["wall_ms.p50"] = median(raw)
	r.values["host.ref_ms.p50"] = median(ref)
	r.values["samples"] = float64(len(ss))
	var done, msSum float64
	for i, xs := range byItem {
		if len(xs) > 0 {
			done += float64(atoms[i])
			msSum += midMean(xs)
		}
	}
	r.values["atoms_per_s"] = frac(done, msSum/1000)
}

// overhead records how much slower the traced loop ran than the
// untraced one, both normalized.
func (r *report) overhead(traced []sample) {
	norm := make([]float64, len(traced))
	for i, s := range traced {
		norm[i] = s.normMs
	}
	r.values["trace_overhead_frac"] = frac(median(norm), r.values["latency_ms.p50"]) - 1
}

// forCycles runs cycle until seconds of wall time have passed, always
// finishing the cycle it is in: every run then covers each item of a
// cycle equally often, whatever order the seed gives them.
func forCycles(seconds float64, cycle func()) {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		cycle()
		if !time.Now().Before(end) {
			return
		}
	}
}

// runtimeMeter measures allocation and garbage collection over a loop.
type runtimeMeter struct {
	mem          runtime.MemStats
	gcCPU, total float64
}

func startRuntimeMeter() *runtimeMeter {
	m := &runtimeMeter{}
	runtime.ReadMemStats(&m.mem)
	m.gcCPU, m.total = cpuSeconds()
	return m
}

// record stores the loop's allocation and GC figures per solve.
func (m *runtimeMeter) record(r *report, solves int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	gcCPU, total := cpuSeconds()
	n := float64(solves)
	r.values["alloc_mib_per_solve"] = frac(float64(after.TotalAlloc-m.mem.TotalAlloc)/(1<<20), n)
	r.values["go.gc_cycles_per_solve"] = frac(float64(after.NumGC-m.mem.NumGC), n)
	r.values["go.gc_cpu_frac"] = frac(gcCPU-m.gcCPU, total-m.total)
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// recordPeakRSS stores the process's resident-set high-water mark
// (VmHWM). Each workload runs in its own process, so it is the
// workload's own.
func (r *report) recordPeakRSS() error {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			r.values["peak_rss_mib"] = kb / 1024
			return nil
		}
	}
	return fmt.Errorf("no VmHWM in /proc/self/status")
}

// means averages the traced loop's per-sample figures by metric name.
type means struct {
	sum map[string]float64
	n   map[string]int
}

func (m *means) add(name string, v float64) {
	if m.sum == nil {
		m.sum, m.n = map[string]float64{}, map[string]int{}
	}
	m.sum[name] += v
	m.n[name]++
}

func (m *means) into(r *report) {
	for k, s := range m.sum {
		r.values[k] = s / float64(m.n[k])
	}
}

// laps records the raw time between marks inside one traced sample.
type laps struct {
	last time.Time
	ms   map[string]float64
}

func newLaps() *laps { return &laps{last: time.Now(), ms: map[string]float64{}} }

func (l *laps) mark(metric string) {
	now := time.Now()
	l.ms[metric] += ms(now.Sub(l.last))
	l.last = now
}

// noLap is the untraced path's lap mark.
func noLap(string) {}

// naiveEpol is the exact O(N·Q + N²) energy of a prepared system: the
// reference every octree energy is checked against.
func naiveEpol(sys *gb.System) float64 {
	radii, _ := sys.NaiveBornRadiiR6()
	e, _ := sys.NaiveEpol(radii)
	return e
}

// checkEpol checks one energy against its naïve reference, counting a
// miss by more than boundKcal as a failure, and tracks the largest
// relative error of the run.
func (r *report) checkEpol(label string, epol, naive, boundKcal float64) {
	diff := math.Abs(epol - naive)
	if !(diff <= boundKcal) {
		r.fail("%s: Epol %.6f is %.4g kcal/mol off the naive %.6f (bound %.4g)", label, epol, diff, naive, boundKcal)
	}
	if rel := diff / math.Abs(naive); rel > r.values["epol_relerr.max"] {
		r.values["epol_relerr.max"] = rel
	}
}

// checkEpols checks every energy a run computed for one molecule at one
// layout: bitwise equal to each other, and within boundKcal of the naïve
// reference.
func (r *report) checkEpols(label string, epols []float64, naive, boundKcal float64) {
	for i, e := range epols {
		if math.Float64bits(e) != math.Float64bits(epols[0]) {
			r.fail("%s solve %d: Epol %v differs from the first solve's %v at the same layout", label, i, e, epols[0])
			continue
		}
		r.checkEpol(fmt.Sprintf("%s solve %d", label, i), e, naive, boundKcal)
	}
}

// forEachParallel calls fn(i) for every i in [0, n) on two goroutines
// and returns when all calls have finished.
func forEachParallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
