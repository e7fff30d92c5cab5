package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// A host slowdown that stretches a sample and both its brackets cancels
// exactly, whatever its size; one that drifts linearly across the sample
// cancels through the mean of the two brackets.
func TestNormalizeCancelsHostSlowdown(t *testing.T) {
	const workMs = 40.0
	for _, c := range []struct{ before, after float64 }{
		{1, 1}, {1.37, 1.37}, {1.9, 1.9}, {3, 3}, // steady
		{1, 1.8}, {2.2, 1.1}, // drifting
	} {
		during := (c.before + c.after) / 2
		s := normalize(workMs*during, refNominalMs*c.before, refNominalMs*c.after)
		if math.Abs(s.normMs-workMs) > 1e-9 {
			t.Errorf("host slowdown %v→%v: normalized %v ms, want %v", c.before, c.after, s.normMs, workMs)
		}
	}
}

// A slowdown of the code under test leaves the reference loop alone, so
// it survives normalization in full.
func TestNormalizeKeepsCodeSlowdown(t *testing.T) {
	base := normalize(40, refNominalMs*1.5, refNominalMs*1.5)
	slow := normalize(80, refNominalMs*1.5, refNominalMs*1.5)
	if r := slow.normMs / base.normMs; math.Abs(r-2) > 1e-12 {
		t.Errorf("a 2x code slowdown normalizes to %vx", r)
	}
}

// On simulated hosts of different speed, the normalizer reports the same
// normalized series, with brackets shared between consecutive samples.
func TestNormalizerSeriesIndependentOfHostSpeed(t *testing.T) {
	work := []float64{12, 80, 3, 250, 40}
	for _, slow := range []float64{1, 1.7, 2.6} {
		var now time.Duration
		run := func(nominalMs float64) { now += time.Duration(nominalMs * slow * float64(time.Millisecond)) }
		n := &normalizer{clock: func() time.Duration { return now }, ref: func() { run(refNominalMs) }}
		for i, w := range work {
			s := n.time(func() { run(w) })
			if math.Abs(s.rawMs-w*slow) > 1e-6 || math.Abs(s.normMs-w) > 1e-6 {
				t.Errorf("host x%v sample %d: raw %v ms, normalized %v ms; want %v and %v", slow, i, s.rawMs, s.normMs, w*slow, w)
			}
		}
	}
}

// An energy off its reference by more than the bound, or NaN, counts as
// a failure; the largest relative error is tracked either way.
func TestCheckEpolCountsFailures(t *testing.T) {
	r := newReport()
	r.checkEpol("inside", -100.5, -100, 1)
	r.checkEpol("outside", -102, -100, 1)
	r.checkEpol("nan", math.NaN(), -100, 1)
	if r.failed != 2 {
		t.Errorf("%d failures, want 2: %v", r.failed, r.failures)
	}
	if got := r.values["epol_relerr.max"]; math.Abs(got-0.02) > 1e-12 {
		t.Errorf("epol_relerr.max %v, want 0.02", got)
	}
	r = newReport()
	r.checkEpols("layout", []float64{-100, -100, math.Nextafter(-100, 0)}, -100, 1)
	if r.failed != 1 {
		t.Errorf("%d failures for one bitwise-different energy, want 1", r.failed)
	}
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct{ Name, Unit string }

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// The command reports exactly the workloads and metrics BENCHMARK.json
// declares, name for name and unit for unit.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		kind string
		got  []metricDef
		want []metricSpec
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in the command, %d in BENCHMARK.json", c.kind, len(c.got), len(c.want))
			continue
		}
		seen := map[string]bool{}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: command has %s (%s), BENCHMARK.json %s (%s)", c.kind, i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
			if seen[d.name] {
				t.Errorf("%s: %s listed twice", c.kind, d.name)
			}
			seen[d.name] = true
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no run function", w.Name)
		}
	}
}

// Short mode: every workload, run briefly on tiny inputs both untraced
// and traced, passes its checks and prints each metric BENCHMARK.json
// names for that mode once, with its unit and a finite value, in the
// result line's format.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep, err := workloads[w.Name](config{seed: 3, seconds: 0.3, trace: trace, short: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			line, err := json.Marshal(rep.result(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: encoding: %v", w.Name, trace, err)
			}
			var keys map[string]json.RawMessage
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Fatalf("%s trace=%v: result line %s: keys %v, %v", w.Name, trace, line, keys, err)
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, rep.failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v (present %v), want unit %s and a finite value", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
