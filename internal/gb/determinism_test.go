package gb

import (
	"fmt"
	"math"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// These tests are the dynamic counterpart of the static `determinism`
// analyzer in internal/analysis: the analyzer forbids sources of run-to-run
// variation the compiler can see (map iteration feeding float accumulation,
// unseeded RNGs, clock reads in kernels); these tests catch the ones it
// cannot — scheduling-order-dependent floating-point reduction. Every
// driver must produce bitwise-identical Epol and Born radii when run twice
// on the same system at the same (P, p) layout, or the ε-bounded
// approximation error and the fault-replay guarantees of PR 1 are
// meaningless.

// bitwiseSame fails the test unless two results are bit-for-bit equal.
func bitwiseSame(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if math.Float64bits(a.Epol) != math.Float64bits(b.Epol) {
		t.Errorf("%s: Epol not bitwise reproducible: %x vs %x (%v vs %v; %s)",
			label, math.Float64bits(a.Epol), math.Float64bits(b.Epol), a.Epol, b.Epol, kernelPath())
	}
	if len(a.Born) != len(b.Born) {
		t.Fatalf("%s: Born lengths differ: %d vs %d (%s)", label, len(a.Born), len(b.Born), kernelPath())
	}
	for i := range a.Born {
		if math.Float64bits(a.Born[i]) != math.Float64bits(b.Born[i]) {
			t.Fatalf("%s: Born[%d] not bitwise reproducible: %v vs %v (%s)", label, i, a.Born[i], b.Born[i], kernelPath())
		}
	}
}

// TestCilkBitwiseDeterministic runs the shared-memory work-stealing driver
// twice per worker count: randomized stealing must not leak into the
// float reduction order (sched.ParallelReduce pins the merge tree).
func TestCilkBitwiseDeterministic(t *testing.T) {
	s := buildSys(t, 500, DefaultParams())
	for _, p := range []int{1, 2, 4, 7} {
		run := func() *Result { return mustRun(t, s, RunSpec{ThreadsPerProcess: p}) }
		a, b := run(), run()
		bitwiseSame(t, "cilk", a, b)
	}
}

// TestDistributedBitwiseDeterministic runs the message-passing drivers
// (pure MPI under both work divisions, hybrid MPI×Cilk, and the
// distributed-data variant) twice at a fixed layout and demands
// bitwise-identical results.
func TestDistributedBitwiseDeterministic(t *testing.T) {
	s := buildSys(t, 500, DefaultParams())
	atomParams := DefaultParams()
	atomParams.Division = AtomNode
	atom := buildSys(t, 500, atomParams)

	for _, P := range []int{2, 5} {
		for _, sys := range []*System{s, atom} {
			a, err := sys.Run(RunSpec{Processes: P})
			if err != nil {
				t.Fatal(err)
			}
			b, err := sys.Run(RunSpec{Processes: P})
			if err != nil {
				t.Fatal(err)
			}
			bitwiseSame(t, fmt.Sprintf("mpi %s P=%d", sys.Params.Division, P), a, b)
		}
	}

	ha, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 3})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 3})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseSame(t, "hybrid", ha, hb)

	da, err := s.RunMPIDistributedData(3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := s.RunMPIDistributedData(3)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseSame(t, "distdata", da, db)
}

// TestSupervisedRunMatchesPlainRun pins the property a tuned job's served
// answer rests on: at one layout, a point computes the same Epol, every
// radius and the same per-core ops whether a WithAccuracy copy runs it
// with no fault config (the tuner's run) or the selected system runs it
// with the FaultConfig the supervisor builds for an attempt without a
// plan (the supervisor's run). Each system is built as the tuner builds
// it, at the monopole ε 0.3 corner on a surface of the point's quadrature
// degree.
func TestSupervisedRunMatchesPlainRun(t *testing.T) {
	maxAtoms := 1500
	if testing.Short() {
		maxAtoms = 600
	}
	var mols []*molecule.Molecule
	for _, n := range []int{500, 833, 1167, 1500} {
		if n <= maxAtoms {
			mols = append(mols, molecule.Exactly(molecule.Globule(fmt.Sprintf("globule-%d", n), n, int64(n)), n, int64(n)))
		}
	}
	roster := molecule.ZDockRoster()
	for _, e := range []molecule.BenchmarkEntry{roster[0], roster[7]} {
		if e.Atoms <= maxAtoms {
			mols = append(mols, molecule.ZDockMolecule(e))
		}
	}
	// One ε per order: the tuner's reference, a cheaper pick, the default.
	eps := [3]float64{0.3, 0.675, 0.9}
	layouts := [][2]int{{1, 1}, {2, 1}, {3, 1}, {1, 2}, {2, 2}}
	for _, mol := range mols {
		for q := 1; q <= 2; q++ {
			cfg := surface.DefaultConfig()
			cfg.RuleDegree = q
			params := DefaultParams()
			params.Accuracy = Accuracy{EpsBorn: 0.3, EpsEpol: 0.3, BinWidth: 0.075, QuadOrder: q}
			sys := newTestSystem(t, mol, cfg, params)
			for ord := OrderMonopole; ord <= OrderQuadrupole; ord++ {
				acc := Accuracy{EpsBorn: eps[ord], EpsEpol: eps[ord], BinWidth: math.Min(eps[ord]/4, 0.2),
					QuadOrder: q, Order: ord}
				tuned, err := sys.WithAccuracy(acc)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range layouts {
					label := fmt.Sprintf("%s q=%d order=%d %d×%d", mol.Name, q, ord, l[0], l[1])
					// The tuner runs each candidate on its own copy.
					candidate, err := sys.WithAccuracy(acc)
					if err != nil {
						t.Fatal(err)
					}
					spec := RunSpec{Processes: l[0], ThreadsPerProcess: l[1]}
					plain := mustRun(t, candidate, spec)
					spec.Faults = &FaultConfig{Policy: Recover}
					supervised := mustRun(t, tuned, spec)
					bitwiseSame(t, label, plain, supervised)
					if fmt.Sprint(supervised.PerCoreOps) != fmt.Sprint(plain.PerCoreOps) {
						t.Errorf("%s: PerCoreOps %v, plain run %v (%s)", label, supervised.PerCoreOps, plain.PerCoreOps, kernelPath())
					}
				}
			}
		}
	}
}
