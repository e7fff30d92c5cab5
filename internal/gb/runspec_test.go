package gb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/surface"
)

// crashFreePlan builds a fault schedule without crashes: the straggler
// sheds half its share and every phase runs once, so these runs exercise
// the plan's partition without redo iterations (crash plans, whose redo
// spans the span tests below inspect, replay identically too — see
// TestChaosReplaysIdentically).
func crashFreePlan() *fault.Plan {
	return &fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 1, AtOp: 2, Count: 3, Dur: 40 * time.Microsecond},
	}}
}

// TestRunMatchesSerialPhaseAPI pins the base case of the one driver
// contract: Run(RunSpec{}), one rank and one thread, reproduces the
// serial phase API (BornRadii + Epol) bit for bit in Epol, every Born
// radius and the operation count, over the roster at orders 0/1/2 in
// both math modes.
func TestRunMatchesSerialPhaseAPI(t *testing.T) {
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			break
		}
		t.Run(e.Name, func(t *testing.T) {
			base := newTestSystem(t, molecule.ZDockMolecule(e), surface.DefaultConfig(), DefaultParams())
			forEachMode(t, base, func(t *testing.T, s *System) {
				label := fmt.Sprintf("order %d math %d", s.order(), s.Params.Math)
				radii, bornOps := s.BornRadii()
				epol, epolOps := s.Epol(radii)
				res := mustRun(t, s, RunSpec{})
				if math.Float64bits(res.Epol) != math.Float64bits(epol) {
					t.Errorf("%s: Run Epol %v, phase API %v", label, res.Epol, epol)
				}
				for i := range radii {
					if math.Float64bits(res.Born[i]) != math.Float64bits(radii[i]) {
						t.Fatalf("%s: Born[%d] %v, phase API %v", label, i, res.Born[i], radii[i])
					}
				}
				if got, want := res.TotalOps(), bornOps+epolOps; got != want {
					t.Errorf("%s: Run ops %d, phase API %d", label, got, want)
				}
			})
		})
	}
}

// TestRunSpecValidation walks the invalid-spec space: every invalid spec
// must produce an error, not a silently-chosen layout.
func TestRunSpecValidation(t *testing.T) {
	s := buildSys(t, 120, DefaultParams())
	bad := []struct {
		name string
		spec RunSpec
	}{
		{"negative-processes", RunSpec{Processes: -1}},
		{"negative-threads", RunSpec{ThreadsPerProcess: -2}},
	}
	for _, tc := range bad {
		if _, err := s.Run(tc.spec); err == nil {
			t.Errorf("%s: Run accepted an invalid spec", tc.name)
		}
	}

	// An inactive fault config is not an error anywhere.
	if _, err := s.Run(RunSpec{Faults: &FaultConfig{}}); err != nil {
		t.Errorf("inactive FaultConfig on a serial spec: %v", err)
	}
}

// TestObsDoesNotChangeNumbers is the instrumentation-neutrality
// invariant: attaching a recorder must leave every computed number
// bitwise unchanged.
func TestObsDoesNotChangeNumbers(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	specs := []struct {
		name string
		spec RunSpec
	}{
		{"serial", RunSpec{}},
		{"mpi", RunSpec{Processes: 3}},
		{"hybrid", RunSpec{Processes: 2, ThreadsPerProcess: 3}},
		{"faults", RunSpec{Processes: 4, Faults: &FaultConfig{Plan: crashFreePlan()}}},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := s.Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			withObs := tc.spec
			withObs.Obs = obs.NewRecorder(perf.StartTimer().Elapsed)
			observed, err := s.Run(withObs)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseSame(t, tc.name, plain, observed)
			if len(withObs.Obs.Spans()) == 0 {
				t.Error("recorder captured no spans")
			}
		})
	}
}

// TestSummaryDeterministic runs the same spec twice with fresh recorders
// and demands byte-identical metric summaries — the Summary excludes
// gauges and timings precisely so this holds. It also spot-checks that
// the workload counters the exporters promise are present.
func TestSummaryDeterministic(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	run := func() string {
		rec := obs.NewRecorder(perf.StartTimer().Elapsed)
		rec.SetLabel("summary-test")
		spec := RunSpec{
			Processes: 3, ThreadsPerProcess: 2,
			Faults: &FaultConfig{Plan: crashFreePlan()},
			Obs:    rec,
		}
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
		return rec.Summary()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("summaries differ between identical runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"counter pairs.born.near ",
		"counter pairs.born.far ",
		"counter pairs.epol.near ",
		"counter pairs.epol.far ",
		"counter comm.allreduce.calls ",
		"counter comm.allgatherv.bytes ",
		// The plan's straggle events leave a counter.
		"counter fault.straggles ",
		// Counter-side histograms: per-rank pair splits (one observation
		// per rank), per-call collective payloads, and the heal-loop
		// iteration counts (3 phases × 3 ranks, all zero crash-free).
		"hist comm.allreduce.bytes.percall ",
		"hist pairs.born.near.rank count=3 ",
		"hist pairs.epol.far.rank count=3 ",
		"hist redo.iterations count=9 ",
		"span approx-integrals ",
		"span push-integrals-to-atoms ",
		"span octree-build ",
		"span approx-epol ",
		"span rank ",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("summary lacks %q:\n%s", want, a)
		}
	}
}

// checkSpanTree asserts structural well-formedness of a recorder's span
// tree: everything closed, intervals ordered, children contained in
// their parents.
func checkSpanTree(t *testing.T, rec *obs.Recorder) []obs.SpanRecord {
	t.Helper()
	if n := rec.OpenSpans(); n != 0 {
		t.Errorf("%d spans left open", n)
	}
	spans := rec.Spans()
	for i, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %d %q: end %v before start %v", i, sp.Name, sp.End, sp.Start)
		}
		if sp.Parent >= 0 {
			p := spans[sp.Parent]
			if p.Rank != sp.Rank {
				t.Errorf("span %d %q: parent on rank %d, child on rank %d", i, sp.Name, p.Rank, sp.Rank)
			}
			if sp.Start < p.Start || sp.End > p.End {
				t.Errorf("span %d %q [%v,%v] escapes parent %q [%v,%v]",
					i, sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
			}
		}
	}
	return spans
}

// TestSpanTreeUnderCrashRecovery drives a crash-and-heal run and asserts
// the span tree stays well-formed through the unwind: the rank root span
// force-closes anything the crash left open, redo iterations appear as
// redo:-prefixed spans, and every surviving rank carries all four
// algorithm phases.
func TestSpanTreeUnderCrashRecovery(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	const P = 4
	res, err := s.Run(RunSpec{
		Processes: P,
		Faults: &FaultConfig{
			Plan:   &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 2}}},
			Policy: Recover,
		},
		Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("crash plan did not trigger recovery")
	}
	spans := checkSpanTree(t, rec)

	lost := make(map[int]bool)
	for _, r := range res.LostRanks {
		lost[r] = true
	}
	phases := map[int]map[string]bool{}
	redo := false
	for _, sp := range spans {
		if phases[sp.Rank] == nil {
			phases[sp.Rank] = make(map[string]bool)
		}
		phases[sp.Rank][sp.Name] = true
		if strings.HasPrefix(sp.Name, redoPrefix) {
			redo = true
		}
	}
	if !redo {
		t.Error("recovered run recorded no redo: spans")
	}
	for rank := 0; rank < P; rank++ {
		if lost[rank] {
			continue
		}
		for _, phase := range []string{spanBorn, spanPush, spanOctree, spanEpol} {
			if !phases[rank][phase] {
				t.Errorf("surviving rank %d lacks %q span (has %v)", rank, phase, phases[rank])
			}
		}
	}
}

// TestSpanTreeUnderChaos replays seeded chaos schedules and requires the
// span tree to stay well-formed whatever the fault mix does to control
// flow — the structural counterpart of the chaos-smoke deadlock tests.
func TestSpanTreeUnderChaos(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	for _, seed := range []int64{3, 11, 42} {
		rec := obs.NewRecorder(perf.StartTimer().Elapsed)
		_, err := s.Run(RunSpec{
			Processes: 4,
			Faults:    &FaultConfig{Plan: fault.Chaos(seed, 4, 6), Policy: Recover},
			Obs:       rec,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if t.Failed() {
			return
		}
		checkSpanTree(t, rec)
	}
}

// A thread count past the atom count used to size a P·p per-core array
// before anything checked it (2^40 threads asked for 16 TiB and killed
// the process). validateLayout rejects P·p > atoms first, without
// forming the overflowing product, and the exact fit stays legal.
func TestRunRejectsMoreCoresThanAtoms(t *testing.T) {
	s := buildSys(t, 40, DefaultParams())
	for _, spec := range []RunSpec{
		{ThreadsPerProcess: 1 << 40},
		{Processes: 2, ThreadsPerProcess: 1 << 40},
		{Processes: 2, ThreadsPerProcess: math.MaxInt},
		{ThreadsPerProcess: 41},
		{Processes: 2, ThreadsPerProcess: 21},
	} {
		if _, err := s.Run(spec); err == nil || !strings.Contains(err.Error(), "invalid layout") {
			t.Errorf("%d×%d on 40 atoms: err = %v, want the layout error", spec.Processes, spec.ThreadsPerProcess, err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 1 << 40}); err == nil {
			t.Fatal("huge layout accepted")
		}
	})
	if allocs > 8 {
		t.Errorf("rejecting a huge layout made %v allocations, want only the error's", allocs)
	}
	for _, spec := range []RunSpec{{ThreadsPerProcess: 40}, {Processes: 2, ThreadsPerProcess: 20}} {
		if _, err := s.Run(spec); err != nil {
			t.Errorf("%d×%d on 40 atoms: %v", spec.Processes, spec.ThreadsPerProcess, err)
		}
	}
}
