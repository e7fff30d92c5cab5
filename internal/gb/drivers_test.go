package gb

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
)

// buildSys prepares a medium test system shared by the driver tests.
func buildSys(t testing.TB, n int, params Params) *System {
	t.Helper()
	m := molecule.Exactly(molecule.Globule("drv", n, 61), n, 61)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(m, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSerial(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	r := mustRun(t, s, RunSpec{})
	if r.Epol >= 0 {
		t.Errorf("Epol = %v, must be negative", r.Epol)
	}
	if len(r.Born) != 400 {
		t.Fatalf("Born len = %d", len(r.Born))
	}
	if r.TotalOps() == 0 || len(r.PerCoreOps) != 1 {
		t.Errorf("ops = %v", r.PerCoreOps)
	}
	if r.Processes != 1 || r.ThreadsPerProcess != 1 {
		t.Errorf("layout = %d×%d", r.Processes, r.ThreadsPerProcess)
	}
}

func TestRunCilkMatchesSerial(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for _, p := range []int{1, 2, 4} {
		r := mustRun(t, s, RunSpec{ThreadsPerProcess: p})
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("p=%d: Epol %v vs serial %v", p, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("p=%d: Born[%d] differs", p, i)
			}
		}
		if len(r.PerCoreOps) != p {
			t.Errorf("p=%d: %d core counters", p, len(r.PerCoreOps))
		}
		// Total interaction work is driver-independent up to duplicated
		// traversal bookkeeping on segment boundaries (<1%).
		if relOps := math.Abs(float64(r.TotalOps()-serial.TotalOps())) / float64(serial.TotalOps()); relOps > 0.01 {
			t.Errorf("p=%d: ops %d vs serial %d", p, r.TotalOps(), serial.TotalOps())
		}
	}
}

func TestRunMPIMatchesSerial(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for _, P := range []int{1, 2, 4, 7} {
		r, err := s.Run(RunSpec{Processes: P})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		// Node-based division: identical approximation at every P (§IV:
		// "the error is constant for constant parameters"); only
		// floating-point reassociation noise may differ.
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("P=%d: Epol %v vs serial %v", P, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("P=%d: Born[%d] differs: %v vs %v", P, i, r.Born[i], serial.Born[i])
			}
		}
		if len(r.PerCoreOps) != P {
			t.Errorf("P=%d: %d counters", P, len(r.PerCoreOps))
		}
		if P > 1 {
			if r.Traffic.Collectives[simmpi.KindAllreduce].Calls == 0 {
				t.Errorf("P=%d: no allreduce traffic", P)
			}
			if r.Traffic.Collectives[simmpi.KindAllgatherv].Calls == 0 {
				t.Errorf("P=%d: no allgather traffic", P)
			}
		}
	}
}

func TestRunHybridMatchesSerial(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	cases := []struct{ P, p int }{{1, 2}, {2, 2}, {2, 3}, {3, 2}}
	for _, tc := range cases {
		r, err := s.Run(RunSpec{Processes: tc.P, ThreadsPerProcess: tc.p})
		if err != nil {
			t.Fatalf("P=%d p=%d: %v", tc.P, tc.p, err)
		}
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("P=%d p=%d: Epol %v vs serial %v", tc.P, tc.p, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("P=%d p=%d: Born[%d] differs", tc.P, tc.p, i)
			}
		}
		if len(r.PerCoreOps) != tc.P*tc.p {
			t.Errorf("P=%d p=%d: %d counters", tc.P, tc.p, len(r.PerCoreOps))
		}
	}
}

func TestRunMPIWorkBalance(t *testing.T) {
	s := buildSys(t, 2000, DefaultParams())
	r, err := s.Run(RunSpec{Processes: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Static node-based division should be roughly balanced on a uniform
	// globule: no rank more than 3× the lightest.
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, ops := range r.PerCoreOps {
		if ops < lo {
			lo = ops
		}
		if ops > hi {
			hi = ops
		}
	}
	if hi > 3*lo {
		t.Errorf("imbalance: min %d max %d", lo, hi)
	}
}

func TestAtomDivisionEnergyVariesWithP(t *testing.T) {
	params := DefaultParams()
	params.Division = AtomNode
	s := buildSys(t, 600, params)
	// The serial run is the one-rank layout, so it honours the division
	// too: Run(RunSpec{}) is bitwise the P = 1 atom-division run.
	one := mustRun(t, s, RunSpec{})
	bitwiseSame(t, "serial vs P=1", mustRun(t, s, RunSpec{Processes: 1}), one)
	// §IV: with atom-based division the error changes with the process
	// count (division boundaries split tree nodes in the Born-integral
	// phase); with node-based division it does not. Every P must stay
	// close to the node-division energy.
	ref := mustRun(t, buildSys(t, 600, DefaultParams()), RunSpec{})
	energies := map[float64]bool{}
	for _, P := range []int{1, 2, 5} {
		r := mustRun(t, s, RunSpec{Processes: P})
		if rel := math.Abs(r.Epol-ref.Epol) / math.Abs(ref.Epol); rel > 0.05 {
			t.Errorf("P=%d: atom division energy off by %v", P, rel)
		}
		energies[r.Epol] = true
		if P == 1 {
			continue
		}
		// The energies alone could differ by summation order; the radii
		// show the split nodes themselves.
		moved := 0
		for i := range r.Born {
			if math.Float64bits(r.Born[i]) != math.Float64bits(one.Born[i]) {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("P=%d: every Born radius equals P=1's — expected split nodes to move some", P)
		}
	}
	if len(energies) < 2 {
		t.Error("atom-based division produced identical energies for all P — expected P-dependence")
	}
}

// TestAtomDivisionOneRankMatchesNodeDivision: at one rank no atom range
// splits a node, and both divisions run the same energy phase, so the
// atom division computes the node division's Epol, every Born radius and
// per-core op count bit for bit, with one thread or two.
func TestAtomDivisionOneRankMatchesNodeDivision(t *testing.T) {
	params := DefaultParams()
	params.Division = AtomNode
	atom := buildSys(t, 600, params)
	node := buildSys(t, 600, DefaultParams())
	for _, p := range []int{1, 2} {
		label := fmt.Sprintf("1×%d", p)
		a := mustRun(t, atom, RunSpec{ThreadsPerProcess: p})
		n := mustRun(t, node, RunSpec{ThreadsPerProcess: p})
		bitwiseSame(t, label, n, a)
		if fmt.Sprint(a.PerCoreOps) != fmt.Sprint(n.PerCoreOps) {
			t.Errorf("%s: atom division PerCoreOps %v, node division %v", label, a.PerCoreOps, n.PerCoreOps)
		}
	}
}

func TestNodeDivisionEnergyConstantAcrossP(t *testing.T) {
	s := buildSys(t, 600, DefaultParams())
	var first float64
	for i, P := range []int{1, 2, 5, 8} {
		r, err := s.Run(RunSpec{Processes: P})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r.Epol
			continue
		}
		// The approximation is P-invariant; only summation-order noise
		// (a few ulps) may differ.
		if relDiff(r.Epol, first) > 1e-13 {
			t.Errorf("P=%d: energy %v differs from P=1's %v (node division must be P-invariant)",
				P, r.Epol, first)
		}
	}
}

// For a fixed P the distributed run must be bit-deterministic: rank-ordered
// reductions leave no room for scheduling noise.
func TestRunMPIDeterministicAtFixedP(t *testing.T) {
	s := buildSys(t, 500, DefaultParams())
	a, err := s.Run(RunSpec{Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(RunSpec{Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Epol != b.Epol {
		t.Errorf("energy not deterministic: %v vs %v", a.Epol, b.Epol)
	}
	for i := range a.Born {
		if a.Born[i] != b.Born[i] {
			t.Fatalf("Born[%d] not deterministic", i)
		}
	}
}

func TestHybridUsesFewerRanksSameEnergy(t *testing.T) {
	s := buildSys(t, 800, DefaultParams())
	mpi, err := s.Run(RunSpec{Processes: 6})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 3})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(mpi.Epol, hyb.Epol) > 1e-13 {
		t.Errorf("energies differ: %v vs %v", mpi.Epol, hyb.Epol)
	}
	// Collective payloads are volume-equal (the hybrid advantage is NIC
	// serialization, modeled in perf); the gathered vector is the full
	// radii set either way.
	mb := mpi.Traffic.Collectives[simmpi.KindAllgatherv].Bytes
	hb := hyb.Traffic.Collectives[simmpi.KindAllgatherv].Bytes
	if mb != hb {
		t.Errorf("gathered volumes differ: hybrid %d vs MPI %d", hb, mb)
	}
}

// relDiff is the symmetric relative difference used for cross-layout
// comparisons.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestRunDistributedValidation: zero counts mean one rank and one thread
// per rank, and a layout with more ranks than atoms is refused up front.
func TestRunDistributedValidation(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	bitwiseSame(t, "P=0", mustRun(t, s, RunSpec{Processes: 1}), mustRun(t, s, RunSpec{Processes: 0}))
	bitwiseSame(t, "p=0", mustRun(t, s, RunSpec{Processes: 2, ThreadsPerProcess: 1}), mustRun(t, s, RunSpec{Processes: 2}))
	if _, err := s.Run(RunSpec{Processes: s.NumAtoms() + 1}); err == nil {
		t.Error("more ranks than atoms accepted")
	}
	// The atom division splits atoms in the Born-integral phase but atom
	// leaves in the energy phase, so it too needs a leaf per rank.
	params := DefaultParams()
	params.Division = AtomNode
	atom := buildSys(t, 200, params)
	P := len(atom.aLeaves) + 1
	if P > atom.NumAtoms() {
		t.Fatalf("%d atom leaves leave no rank count between the leaves and the %d atoms", P-1, atom.NumAtoms())
	}
	if _, err := atom.Run(RunSpec{Processes: P}); !errors.Is(err, ErrInvalidLayout) {
		t.Errorf("atom division at P=%d over %d atom leaves: err %v, want ErrInvalidLayout", P, P-1, err)
	}
}

// mustRun runs spec on s and fails the test on error.
func mustRun(t testing.TB, s *System, spec RunSpec) *Result {
	t.Helper()
	res, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
