package gb

import (
	"math"
	"testing"
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
		t.Errorf("%s: Epol not bitwise reproducible: %x vs %x (%v vs %v)",
			label, math.Float64bits(a.Epol), math.Float64bits(b.Epol), a.Epol, b.Epol)
	}
	if len(a.Born) != len(b.Born) {
		t.Fatalf("%s: Born lengths differ: %d vs %d", label, len(a.Born), len(b.Born))
	}
	for i := range a.Born {
		if math.Float64bits(a.Born[i]) != math.Float64bits(b.Born[i]) {
			t.Fatalf("%s: Born[%d] not bitwise reproducible: %v vs %v", label, i, a.Born[i], b.Born[i])
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
// (pure MPI, hybrid MPI×Cilk, and the distributed-data variant) twice at
// a fixed layout and demands bitwise-identical results.
func TestDistributedBitwiseDeterministic(t *testing.T) {
	s := buildSys(t, 500, DefaultParams())

	for _, P := range []int{2, 5} {
		a, err := s.Run(RunSpec{Processes: P})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Run(RunSpec{Processes: P})
		if err != nil {
			t.Fatal(err)
		}
		bitwiseSame(t, "mpi", a, b)
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
