package tune

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/surface"
)

// rosterSubset picks the roster molecules the property test sweeps: a
// small/medium/large slice by default, the whole ZDock roster when
// GBTUNE_ROSTER=full (the acceptance sweep, `make tune-roster` — minutes,
// not seconds).
func rosterSubset(t *testing.T) []molecule.BenchmarkEntry {
	roster := molecule.ZDockRoster()
	if os.Getenv("GBTUNE_ROSTER") == "full" {
		return roster
	}
	if testing.Short() {
		return []molecule.BenchmarkEntry{roster[0]}
	}
	return []molecule.BenchmarkEntry{roster[0], roster[6], roster[12]}
}

// naiveEpol is the exact energy the tuner is graded against: the naïve
// r⁶ Born radii and the naïve energy sum on the degree-q surface.
func naiveEpol(t *testing.T, mol *molecule.Molecule, q int) float64 {
	t.Helper()
	cfg := surface.DefaultConfig()
	cfg.RuleDegree = q
	surf, err := surface.Build(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := sys.NaiveBornRadiiR6()
	e, _ := sys.NaiveEpol(radii)
	return e
}

// TestSelectMeetsTargetAcrossRoster is the tuner property test: on every
// roster molecule swept, at one and at two ranks, the selected point's
// energy sits within the target of the NAÏVE energy at the highest
// degree searched — not of the tuner's own reference, so the selection
// does not grade its own homework — and a re-run of the returned system
// at the same layout reproduces the verification run bit for bit.
func TestSelectMeetsTargetAcrossRoster(t *testing.T) {
	for _, e := range rosterSubset(t) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			mol := molecule.ZDockMolecule(e)
			const target = 1.0 // kcal/mol
			naive := naiveEpol(t, mol, 2)
			for _, procs := range []int{1, 2} {
				start := time.Now()
				sel, err := Select(mol, target, Options{Processes: procs})
				took := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if !sel.Point.Verified {
					t.Errorf("P=%d: selected point is not verified", procs)
				}
				if sel.Point.MeasuredError > target {
					t.Errorf("P=%d: measured error %v exceeds target %v", procs, sel.Point.MeasuredError, target)
				}
				if sel.Point.Acc.TargetError != target {
					t.Errorf("P=%d: selected Acc.TargetError = %v, want %v", procs, sel.Point.Acc.TargetError, target)
				}
				if sel.System == nil || sel.Surface == nil {
					t.Fatalf("P=%d: selection carries no ready system/surface", procs)
				}
				res := mustRun(t, sel.System, gb.RunSpec{Processes: procs})
				if got := math.Abs(res.Epol - naive); got > target {
					t.Errorf("P=%d: |Epol − naïve| = %v exceeds target %v (naïve %v, tuned %v)",
						procs, got, target, naive, res.Epol)
				}
				if math.Float64bits(res.Epol) != math.Float64bits(sel.Point.Epol) {
					t.Errorf("P=%d: re-run Epol %v differs from the verification run's %v", procs, res.Epol, sel.Point.Epol)
				}
				a := sel.Point.Acc
				t.Logf("P=%d: p=%d q=%d eps=%g in %d ms, %d verify runs, |Epol − naïve| = %.4f kcal",
					procs, a.Order, a.QuadOrder, a.EpsEpol, took.Milliseconds(), sel.VerifyRuns,
					math.Abs(res.Epol-naive))
			}
		})
	}
}

// TestSelectTightTargetStaysAdmissible pins the tight end: a target of
// 0.05 kcal/mol — below every coarse candidate's bound — still returns
// a point within the target of the naïve energy (a tight candidate or
// the reference point).
func TestSelectTightTargetStaysAdmissible(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	const target = 0.05
	sel, err := Select(mol, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Point.Verified || sel.Point.MeasuredError > target {
		t.Errorf("tight target: verified=%v measured=%v target=%v",
			sel.Point.Verified, sel.Point.MeasuredError, target)
	}
	res := mustRun(t, sel.System, gb.RunSpec{})
	if got := math.Abs(res.Epol - naiveEpol(t, mol, 2)); got > target {
		t.Errorf("|Epol − naïve| = %v exceeds tight target %v", got, target)
	}
}

// TestSelectDeterministic pins Select's determinism contract: two
// searches over the same (molecule, target, options) produce the same
// point, bit for bit, and the same ladder.
func TestSelectDeterministic(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	a, err := Select(mol, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(mol, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Point.Acc != b.Point.Acc {
		t.Errorf("selected points differ: %+v vs %+v", a.Point.Acc, b.Point.Acc)
	}
	if math.Float64bits(a.Point.Epol) != math.Float64bits(b.Point.Epol) {
		t.Errorf("selected Epol not bitwise reproducible: %x vs %x",
			math.Float64bits(a.Point.Epol), math.Float64bits(b.Point.Epol))
	}
	if math.Float64bits(a.ReferenceEpol) != math.Float64bits(b.ReferenceEpol) {
		t.Errorf("reference Epol not bitwise reproducible")
	}
	if a.VerifyRuns != b.VerifyRuns {
		t.Errorf("verify runs differ: %d vs %d", a.VerifyRuns, b.VerifyRuns)
	}
	if len(a.Ladder) != len(b.Ladder) {
		t.Fatalf("ladder lengths differ: %d vs %d", len(a.Ladder), len(b.Ladder))
	}
	for i := range a.Ladder {
		if a.Ladder[i].Acc != b.Ladder[i].Acc {
			t.Errorf("ladder step %d differs: %+v vs %+v", i, a.Ladder[i].Acc, b.Ladder[i].Acc)
		}
	}
}

// TestSelectLadderIsAdmissibleFrontier pins the shed schedule's shape:
// every step shares the selected quadrature order (the surface cannot be
// rebuilt mid-supervision), predicted error strictly increases down the
// ladder, and the cap holds.
func TestSelectLadderIsAdmissibleFrontier(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	sel, err := Select(mol, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Ladder) > 4 {
		t.Errorf("ladder has %d steps, cap is 4", len(sel.Ladder))
	}
	last := sel.Point.PredictedRelError
	for i, step := range sel.Ladder {
		if step.Acc.QuadOrder != sel.Point.Acc.QuadOrder {
			t.Errorf("ladder step %d changes quadrature order %d -> %d",
				i, sel.Point.Acc.QuadOrder, step.Acc.QuadOrder)
		}
		if step.PredictedRelError <= last {
			t.Errorf("ladder step %d predicted error %v does not increase past %v",
				i, step.PredictedRelError, last)
		}
		last = step.PredictedRelError
	}
}

// TestSelectEmitsSummaryCounters checks the obs contract: the chosen
// point lands in the recorder as deterministic integer counters.
func TestSelectEmitsSummaryCounters(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	rec := obs.NewRecorder(nil)
	sel, err := Select(mol, 1.0, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c["tune.candidates"] != int64(len(sel.Candidates)) {
		t.Errorf("tune.candidates = %d, want %d", c["tune.candidates"], len(sel.Candidates))
	}
	if c["tune.verify_runs"] != int64(sel.VerifyRuns) {
		t.Errorf("tune.verify_runs = %d, want %d", c["tune.verify_runs"], sel.VerifyRuns)
	}
	if c["tune.selected.order"] != int64(sel.Point.Acc.Order) {
		t.Errorf("tune.selected.order = %d, want %d", c["tune.selected.order"], sel.Point.Acc.Order)
	}
	if c["tune.selected.quad_order"] != int64(sel.Point.Acc.QuadOrder) {
		t.Errorf("tune.selected.quad_order = %d, want %d",
			c["tune.selected.quad_order"], sel.Point.Acc.QuadOrder)
	}
	if c["tune.target_micro_kcal"] != 1_000_000 {
		t.Errorf("tune.target_micro_kcal = %d, want 1000000", c["tune.target_micro_kcal"])
	}
	if _, ok := c["tune.selected.eps_epol_milli"]; !ok {
		t.Error("tune.selected.eps_epol_milli counter missing")
	}
}

// TestSelectRejectsBadInput pins the input validation.
func TestSelectRejectsBadInput(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	if _, err := Select(nil, 1.0, Options{}); err == nil {
		t.Error("nil molecule accepted")
	}
	if _, err := Select(mol, 0, Options{}); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := Select(mol, -1, Options{}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := Select(mol, math.NaN(), Options{}); err == nil {
		t.Error("NaN target accepted")
	}
	if _, err := Select(mol, 1.0, Options{MaxQuadOrder: 9}); err == nil {
		t.Error("MaxQuadOrder beyond the Dunavant range accepted")
	}
	for _, scale := range []float64{0, -0.3, math.NaN(), math.Inf(1)} {
		if _, err := Select(mol, 1.0, Options{EpsScales: []float64{0.9, scale}}); err == nil {
			t.Errorf("ε scale %v accepted", scale)
		}
	}
}

// TestRelErrorBoundShape pins the per-term model's monotonicity: the
// bound loosens with ε and bin width, tightens with quadrature degree,
// and is order-independent (the order-aware opening criteria hold the
// truncation ratio fixed across orders — order buys WORK, not error).
func TestRelErrorBoundShape(t *testing.T) {
	base := gb.Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, BinWidth: 0.2, QuadOrder: 1, Order: 1}
	b0 := RelErrorBound(base)
	if !(b0 > 0) {
		t.Fatalf("bound %v, want positive", b0)
	}
	tighterEps := base
	tighterEps.EpsBorn, tighterEps.EpsEpol = 0.45, 0.45
	if RelErrorBound(tighterEps) >= b0 {
		t.Errorf("tighter eps did not tighten the bound: %v vs %v", RelErrorBound(tighterEps), b0)
	}
	finerBin := base
	finerBin.BinWidth = 0.05
	if RelErrorBound(finerBin) >= b0 {
		t.Errorf("finer bins did not tighten the bound: %v vs %v", RelErrorBound(finerBin), b0)
	}
	higherQuad := base
	higherQuad.QuadOrder = 2
	if RelErrorBound(higherQuad) >= b0 {
		t.Errorf("higher quadrature did not tighten the bound: %v vs %v", RelErrorBound(higherQuad), b0)
	}
	for ord := gb.OrderMonopole; ord <= gb.OrderQuadrupole; ord++ {
		p := base
		p.Order = ord
		if got := RelErrorBound(p); got != b0 {
			t.Errorf("order %d changed the bound: %v vs %v (the opening criteria are order-aware)",
				ord, got, b0)
		}
	}
}

// TestDriversWithinBoundAtHigherOrders is the |Epol − Epol_ref| ≤
// ErrorBound regression of PR 8 for p = 1 and p = 2 on every driver:
// serial, shared-memory, message-passing, and hybrid runs at a coarse
// accuracy point must all land within the model bound of the tight
// reference, and each layout must be bitwise reproducible.
func TestDriversWithinBoundAtHigherOrders(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("bound", 500, 61), 500, 61)
	cfg := surface.DefaultConfig()
	cfg.RuleDegree = 2
	surf, err := surface.Build(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := gb.DefaultParams()
	params.Accuracy = gb.Accuracy{
		EpsBorn: 0.3, EpsEpol: 0.3, BinWidth: 0.3 / 8,
		QuadOrder: 2, Order: gb.OrderQuadrupole,
	}
	sys, err := gb.NewSystem(mol, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRun(t, sys, gb.RunSpec{})

	for _, ord := range []int{gb.OrderDipole, gb.OrderQuadrupole} {
		acc := gb.Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 2, Order: ord}
		bound := RelErrorBound(acc) * math.Abs(ref.Epol)
		at, err := sys.WithAccuracy(acc)
		if err != nil {
			t.Fatal(err)
		}
		drivers := []struct {
			name string
			run  func() (*gb.Result, error)
		}{
			{"serial", func() (*gb.Result, error) { return at.Run(gb.RunSpec{}) }},
			{"cilk", func() (*gb.Result, error) { return at.Run(gb.RunSpec{ThreadsPerProcess: 4}) }},
			{"mpi", func() (*gb.Result, error) { return at.Run(gb.RunSpec{Processes: 3}) }},
			{"hybrid", func() (*gb.Result, error) { return at.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 2}) }},
		}
		for _, d := range drivers {
			a, err := d.run()
			if err != nil {
				t.Fatalf("p=%d %s: %v", ord, d.name, err)
			}
			b, err := d.run()
			if err != nil {
				t.Fatalf("p=%d %s rerun: %v", ord, d.name, err)
			}
			if math.Float64bits(a.Epol) != math.Float64bits(b.Epol) {
				t.Errorf("p=%d %s: Epol not bitwise reproducible: %v vs %v", ord, d.name, a.Epol, b.Epol)
			}
			if got := math.Abs(a.Epol - ref.Epol); got > bound {
				t.Errorf("p=%d %s: |Epol − ref| = %v exceeds model bound %v", ord, d.name, got, bound)
			}
		}
	}
}

// mustRun runs spec on s and fails the test on error.
func mustRun(t testing.TB, s *gb.System, spec gb.RunSpec) *gb.Result {
	t.Helper()
	res, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReferencePointAdmittedFromReferenceRun pins the reference: it is
// the grid's monopole corner at the smallest ε and the highest degree,
// and when the search reaches it, it is admitted from the reference run
// itself — measured error 0, the reference's Epol bits — without a
// verification run.
func TestReferencePointAdmittedFromReferenceRun(t *testing.T) {
	mol := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	sel, err := Select(mol, 0.05, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := gb.Accuracy{EpsBorn: 0.3, EpsEpol: 0.3, BinWidth: 0.075, QuadOrder: 2, Order: gb.OrderMonopole}
	if sel.ReferenceAcc != want {
		t.Fatalf("reference %+v, want %+v", sel.ReferenceAcc, want)
	}
	verified, refVerified := 0, false
	for _, c := range sel.Candidates {
		if !c.Verified {
			continue
		}
		verified++
		a := c.Acc
		a.TargetError = 0
		if a != sel.ReferenceAcc {
			continue
		}
		refVerified = true
		if c.MeasuredError != 0 || math.Float64bits(c.Epol) != math.Float64bits(sel.ReferenceEpol) {
			t.Errorf("reference candidate measured %v, Epol %v; want 0 and the reference run's %v",
				c.MeasuredError, c.Epol, sel.ReferenceEpol)
		}
	}
	if !refVerified {
		t.Fatal("the search never reached the reference point")
	}
	if sel.VerifyRuns != verified-1 {
		t.Errorf("VerifyRuns = %d with %d verified candidates; the reference's admission is not a run",
			sel.VerifyRuns, verified)
	}
}

// The admitted point's run reaches the caller as a finished checkpoint at
// the caller's layout, whether the pick is the reference (admitted from
// the reference run) or a verified cheaper point. The selected system
// resumes from it to the verification run's Epol and to the bits of a
// recompute. A layout gb rejects tunes on one rank and hands back no
// checkpoint.
func TestSnapshotIsTheAdmittedRun(t *testing.T) {
	globule := func(n int) *molecule.Molecule {
		return molecule.Exactly(molecule.Globule(fmt.Sprintf("globule-%d", n), n, int64(n)), n, int64(n))
	}
	cases := []struct {
		name string
		mol  *molecule.Molecule
	}{
		{"reference", globule(500)},
		{"cheaper", globule(833)},
	}
	const procs = 2
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sel, err := Select(c.mol, 1.0, Options{Processes: procs})
			if err != nil {
				t.Fatal(err)
			}
			acc := sel.Point.Acc
			acc.TargetError = 0
			if isRef := acc == sel.ReferenceAcc; isRef != (c.name == "reference") {
				t.Fatalf("the pick %+v is the reference: %v", sel.Point.Acc, isRef)
			}
			ck, err := gb.DecodeCheckpoint(sel.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Phase != gb.PhaseEpol || ck.Processes != procs {
				t.Fatalf("snapshot is a %s checkpoint at P=%d, want epol at P=%d", ck.Phase, ck.Processes, procs)
			}
			if err := sel.System.CanResume(ck); err != nil {
				t.Fatal(err)
			}
			resumed := mustRun(t, sel.System, gb.RunSpec{Processes: procs, Resume: ck})
			fresh := mustRun(t, sel.System, gb.RunSpec{Processes: procs})
			if math.Float64bits(resumed.Epol) != math.Float64bits(sel.Point.Epol) {
				t.Errorf("resumed Epol %v, the admitting run's %v", resumed.Epol, sel.Point.Epol)
			}
			if math.Float64bits(fresh.Epol) != math.Float64bits(resumed.Epol) {
				t.Errorf("recomputed Epol %v, resumed %v", fresh.Epol, resumed.Epol)
			}
			for i := range fresh.Born {
				if math.Float64bits(fresh.Born[i]) != math.Float64bits(resumed.Born[i]) {
					t.Fatalf("Born[%d]: recomputed %v, resumed %v", i, fresh.Born[i], resumed.Born[i])
				}
			}
			if fresh.TotalOps() != sel.Point.Ops {
				t.Errorf("recompute counted %d ops, the admitting run %d", fresh.TotalOps(), sel.Point.Ops)
			}
		})
	}

	sel, err := Select(molecule.Exactly(molecule.Globule("tiny", 12, 5), 12, 5), 1.0, Options{Processes: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Snapshot != nil {
		t.Error("a search retried on one rank handed back a checkpoint")
	}
}

// Select culls its molecule once, on its cores, and emits every degree's
// surface from that cull. Each is surface.Build's at that degree, bit for
// bit: the reference corner's degree 2, emitted first, under a target no
// cheaper point meets, and a degree-1 pick, emitted second, under a
// loose one.
func TestSelectSurfacesMatchBuild(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("globule-500", 500, 500), 500, 500)
	for _, tc := range []struct {
		target float64
		degree int
	}{{1e-9, 2}, {1e3, 1}} {
		sel, err := Select(mol, tc.target, Options{Processes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if q := sel.Point.Acc.QuadOrder; q != tc.degree {
			t.Fatalf("target %v: picked degree %d, want %d", tc.target, q, tc.degree)
		}
		cfg := surface.DefaultConfig()
		cfg.RuleDegree = tc.degree
		want, err := surface.Build(mol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := sel.Surface
		if sel.System.Surf != got {
			t.Fatalf("degree %d: the system runs on another surface", tc.degree)
		}
		if len(got.Points) != len(want.Points) || math.Float64bits(got.Area) != math.Float64bits(want.Area) ||
			got.ExposedAtoms != want.ExposedAtoms {
			t.Fatalf("degree %d: %d points, area %v, %d exposed; Build: %d, %v, %d", tc.degree,
				len(got.Points), got.Area, got.ExposedAtoms, len(want.Points), want.Area, want.ExposedAtoms)
		}
		bits := func(q surface.QPoint) [8]uint64 {
			f := math.Float64bits
			return [8]uint64{f(q.Pos.X), f(q.Pos.Y), f(q.Pos.Z), f(q.Normal.X), f(q.Normal.Y), f(q.Normal.Z), f(q.Weight), uint64(q.Atom)}
		}
		for i, q := range got.Points {
			if bits(q) != bits(want.Points[i]) {
				t.Fatalf("degree %d: point %d = %+v, Build's %+v", tc.degree, i, q, want.Points[i])
			}
		}
	}
}
