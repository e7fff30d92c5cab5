package gb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// Physical invariant: Epol is invariant under rigid motion of the whole
// molecule (§IV-C Step 1 relies on this to reuse octrees in docking
// scans).
func TestEpolRigidMotionInvariance(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("inv", 500, 87), 500, 87)
	tr := geom.Translate(geom.V(17, -4, 9)).Compose(geom.Rotate(geom.V(1, 2, 3), 1.1))
	moved := mol.ApplyTransform(tr)
	// The surface moves with the molecule (§IV-C's reuse path): a surface
	// rebuilt on the moved atoms samples each sphere on lab-fixed axes,
	// which moves the naïve energy itself by about 1 %.
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *molecule.Molecule, surf *surface.Surface) float64 {
		sys, err := NewSystem(m, surf, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, sys, RunSpec{}).Epol
	}
	e0, e1 := run(mol, surf), run(moved, surf.ApplyTransform(tr))
	// The octree decomposition is orientation-dependent (axis-aligned
	// cells), so the *approximation* differs slightly; the energies must
	// agree within the ε error band.
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.01 {
		t.Errorf("Epol changed by %.3f%% under rigid motion (%v vs %v; %s)", rel*100, e0, e1, kernelPath())
	}
}

// Physical invariant: atom labels carry no physics, so relabelling the
// input atoms must give the same energy and the same radius per atom.
// The trees see the same point sets in another item order, so the
// traversal and its work are unchanged; only summation order moves
// (node centroids and moments sum in item order), which bounds the
// difference at rounding, not at ε.
func TestEpolAtomPermutationInvariance(t *testing.T) {
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	build := func(m *molecule.Molecule, order int) *System {
		surf, err := surface.Build(m, surface.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.Accuracy.Order = order
		sys, err := NewSystem(m, surf, p)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	const tol = 1e-12
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			continue
		}
		mol := molecule.ZDockMolecule(e)
		for _, order := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
			ref := build(mol, order)
			layouts := []int{1, 2}
			refs := make([]*Result, len(layouts))
			for l, P := range layouts {
				refs[l] = mustRun(t, ref, RunSpec{Processes: P})
			}
			for seed := int64(1); seed <= 3; seed++ {
				// perm[k] is the original index of permuted atom k.
				perm := rand.New(rand.NewSource(seed)).Perm(mol.NumAtoms())
				pm := &molecule.Molecule{Name: mol.Name, Atoms: make([]molecule.Atom, len(perm))}
				for k, i := range perm {
					pm.Atoms[k] = mol.Atoms[i]
				}
				sys := build(pm, order)
				for l, P := range layouts {
					got, want := mustRun(t, sys, RunSpec{Processes: P}), refs[l]
					name := fmt.Sprintf("%s order %d seed %d %d×1", e.Name, order, seed, P)
					if got.TotalOps() != want.TotalOps() {
						t.Errorf("%s: %d ops, unpermuted %d (%s)", name, got.TotalOps(), want.TotalOps(), kernelPath())
					}
					if r := rel(got.Epol, want.Epol); r > tol {
						t.Errorf("%s: Epol %v, unpermuted %v (rel %.3g; %s)", name, got.Epol, want.Epol, r, kernelPath())
					}
					for k, i := range perm {
						if r := rel(got.Born[k], want.Born[i]); r > tol {
							t.Errorf("%s: Born radius of atom %d is %v, unpermuted %v (rel %.3g; %s)",
								name, i, got.Born[k], want.Born[i], r, kernelPath())
							break
						}
					}
				}
			}
		}
	}
}

// The transformed-surface fast path must agree with rebuilding from the
// transformed molecule exactly for the naive evaluator (no octree
// orientation effects).
func TestNaiveRigidMotionViaTransformedSurface(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("inv2", 300, 88), 300, 88)
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := sys.NaiveBornRadiiR6()
	e0, _ := sys.NaiveEpol(radii)

	tr := geom.Rotate(geom.V(0, 1, 0), 0.83).Compose(geom.Translate(geom.V(3, 3, 3)))
	movedMol := mol.ApplyTransform(tr)
	movedSurf := surf.ApplyTransform(tr)
	sys2, err := NewSystem(movedMol, movedSurf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	radii2, _ := sys2.NaiveBornRadiiR6()
	e1, _ := sys2.NaiveEpol(radii2)
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 1e-10 {
		t.Errorf("naive energy changed by %v under rigid motion (%s)", rel, kernelPath())
	}
	for i := range radii {
		if math.Abs(radii[i]-radii2[i]) > 1e-9 {
			t.Fatalf("Born radius %d changed: %v vs %v (%s)", i, radii[i], radii2[i], kernelPath())
		}
	}
}

// Property: f_GB is symmetric, positive, bounded below by max(r, 0) and
// above by sqrt(r² + RiRj).
func TestFGBProperties(t *testing.T) {
	f := func(rRaw, aRaw, bRaw float64) bool {
		r2 := math.Mod(math.Abs(rRaw), 1e4)
		ra := 0.5 + math.Mod(math.Abs(aRaw), 50)
		rb := 0.5 + math.Mod(math.Abs(bRaw), 50)
		if math.IsNaN(r2) || math.IsNaN(ra) || math.IsNaN(rb) {
			return true
		}
		v := fGB(r2, ra*rb)
		vSym := fGB(r2, rb*ra)
		upper := math.Sqrt(r2 + ra*rb)
		lower := math.Sqrt(r2)
		return v == vSym && v > 0 && v >= lower-1e-12 && v <= upper+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Born radii are monotone in the integral: a larger surface
// flux means a smaller radius.
func TestBornRadiusMonotone(t *testing.T) {
	f := func(aRaw, bRaw float64) bool {
		s1 := 1e-6 + math.Mod(math.Abs(aRaw), 10)
		s2 := 1e-6 + math.Mod(math.Abs(bRaw), 10)
		if math.IsNaN(s1) || math.IsNaN(s2) {
			return true
		}
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		r1 := bornRadiusFromIntegral(s1, 0.1)
		r2 := bornRadiusFromIntegral(s2, 0.1)
		return r1 >= r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Epol scales quadratically with uniform charge scaling (at
// fixed radii): E(λq) = λ²E(q).
func TestEpolChargeScaling(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("scale", 200, 89), 200, 89)
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := sys.NaiveBornRadiiR6()
	e1, _ := sys.NaiveEpol(radii)

	scaled := mol.Clone()
	for i := range scaled.Atoms {
		scaled.Atoms[i].Charge *= 2
	}
	sys2, err := NewSystem(scaled, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := sys2.NaiveEpol(radii)
	if math.Abs(e2-4*e1)/math.Abs(4*e1) > 1e-12 {
		t.Errorf("E(2q) = %v, want 4·E(q) = %v", e2, 4*e1)
	}
}

// Larger solvent dielectric means more negative polarization energy
// (monotone in τ).
func TestEpolSolventMonotone(t *testing.T) {
	mol := molecule.Exactly(molecule.Globule("solv", 200, 90), 200, 90)
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, epsS := range []float64{2, 10, 80, 1000} {
		params := DefaultParams()
		params.EpsSolvent = epsS
		sys, err := NewSystem(mol, surf, params)
		if err != nil {
			t.Fatal(err)
		}
		radii, _ := sys.NaiveBornRadiiR6()
		e, _ := sys.NaiveEpol(radii)
		if e >= 0 {
			t.Fatalf("eps=%v: Epol %v not negative", epsS, e)
		}
		if i > 0 && e >= prev {
			t.Errorf("eps=%v: Epol %v not more negative than %v", epsS, e, prev)
		}
		prev = e
	}
}
