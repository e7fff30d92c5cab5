// End-to-end integration tests: the flows a downstream user strings
// together — file I/O → surface → system → drivers → energies — exercised
// through the public package APIs the way cmd/gbpol does.
package gbpolar_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"gbpolar/internal/dock"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/pb"
	"gbpolar/internal/sched"
	"gbpolar/internal/surface"
)

// TestPipelineFromPQRFile drives the full stack from a file on disk:
// generate → save as PQR → load → surface → octrees → all four drivers →
// identical energies.
func TestPipelineFromPQRFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "protein.pqr")
	orig := molecule.Exactly(molecule.Globule("filetest", 600, 2026), 600, 2026)
	if err := molecule.SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	mol, err := molecule.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mol.NumAtoms() != orig.NumAtoms() {
		t.Fatalf("loaded %d atoms, wrote %d", mol.NumAtoms(), orig.NumAtoms())
	}
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	serial := mustRun(t, sys, gb.RunSpec{})
	if serial.Epol >= 0 {
		t.Fatalf("Epol = %v", serial.Epol)
	}
	cilk := mustRun(t, sys, gb.RunSpec{ThreadsPerProcess: 4})
	mpi, err := sys.Run(gb.RunSpec{Processes: 6})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := sys.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 3})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.RunMPIDynamic(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]float64{
		"cilk": cilk.Epol, "mpi": mpi.Epol, "hybrid": hyb.Epol, "dynamic": dyn.Epol,
	} {
		if rel := math.Abs(e-serial.Epol) / math.Abs(serial.Epol); rel > 1e-12 {
			t.Errorf("%s energy differs from serial by %v", name, rel)
		}
	}
	// PQR round trip quantizes coordinates to 1e-3 Å: energy from the
	// file-loaded molecule matches the original within that noise.
	surfO, err := surface.Build(orig, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sysO, err := gb.NewSystem(orig, surfO, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mustRun(t, sysO, gb.RunSpec{}).Epol-serial.Epol) / math.Abs(serial.Epol); rel > 1e-3 {
		t.Errorf("file round trip changed energy by %v", rel)
	}
}

// TestModelLadderConsistency: Poisson, exact GB and octree GB must all
// agree on sign and order of magnitude for one molecule (the validation
// ladder of examples/validation).
func TestModelLadderConsistency(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("ladder", 100, 9), 100, 9)
	pbRes, err := pb.Solve(mol, pb.Config{Dim: 49})
	if err != nil {
		t.Fatal(err)
	}
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := sys.NaiveBornRadiiR6()
	exact, _ := sys.NaiveEpol(radii)
	oct := mustRun(t, sys, gb.RunSpec{}).Epol
	for name, e := range map[string]float64{"pb": pbRes.Epol, "gb": exact, "oct": oct} {
		if e >= 0 {
			t.Errorf("%s energy %v not negative", name, e)
		}
	}
	if r := exact / pbRes.Epol; r < 0.3 || r > 3 {
		t.Errorf("GB/PB ratio %v outside order-of-magnitude band", r)
	}
	if r := oct / exact; r < 0.95 || r > 1.05 {
		t.Errorf("octree/exact ratio %v", r)
	}
}

// TestDockingFlow: the docking API end to end on small inputs.
func TestDockingFlow(t *testing.T) {
	rec := molecule.Exactly(molecule.Globule("rec", 400, 3), 400, 3)
	lig := molecule.Exactly(molecule.Globule("lig", 40, 5), 40, 5)
	scorer, err := dock.NewScorer(rec, lig, gb.DefaultParams(), surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(2)
	defer pool.Close()
	scores, err := scorer.ScoreAll(pool, scorer.SpherePoses(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 6 {
		t.Fatalf("scores = %d", len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].DeltaEpol < scores[i-1].DeltaEpol {
			t.Fatal("not sorted")
		}
	}
}

// TestXYZRQRoundTripEnergyExact: the plain-text format stores enough
// digits that energies survive a save/load cycle almost exactly.
func TestXYZRQRoundTripEnergyExact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.xyzrq")
	mol := molecule.Exactly(molecule.Globule("x", 200, 4), 200, 4)
	if err := molecule.SaveFile(path, mol); err != nil {
		t.Fatal(err)
	}
	loaded, err := molecule.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := epolOf(t, mol)
	e2 := epolOf(t, loaded)
	if rel := math.Abs(e1-e2) / math.Abs(e1); rel > 1e-4 {
		t.Errorf("round trip energy drift %v", rel)
	}
	// Clean up is automatic (t.TempDir), but verify the file existed.
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func epolOf(t *testing.T, m *molecule.Molecule) float64 {
	t.Helper()
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gb.NewSystem(m, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return mustRun(t, sys, gb.RunSpec{}).Epol
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
