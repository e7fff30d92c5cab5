package gb

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

func complexFixture(t *testing.T, recN, ligN int) (*System, *System, *Complex) {
	t.Helper()
	rec := buildSys(t, recN, DefaultParams())
	ligMol := molecule.Exactly(molecule.Globule("lig", ligN, 97), ligN, 97)
	ligSurf, err := surface.Build(ligMol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lig, err := NewSystem(ligMol, ligSurf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cx, err := NewComplex(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	return rec, lig, cx
}

// A far-away ligand must not change either molecule's energetics: the
// complex energy is the sum of the solo energies and the Born radii match
// the solo radii.
func TestComplexFarPoseSeparates(t *testing.T) {
	rec, lig, cx := complexFixture(t, 400, 60)
	recSolo := mustRun(t, rec, RunSpec{})
	ligSolo := mustRun(t, lig, RunSpec{})
	res, err := cx.Epol(geom.Translate(geom.V(800, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	want := recSolo.Epol + ligSolo.Epol
	if rel := math.Abs(res.Epol-want) / math.Abs(want); rel > 5e-3 {
		t.Errorf("far-pose complex %v vs solo sum %v (rel %v)", res.Epol, want, rel)
	}
	for i := range res.RecBorn {
		if relDiff(res.RecBorn[i], recSolo.Born[i]) > 1e-3 {
			t.Fatalf("receptor Born radius %d shifted by a distant ligand", i)
		}
	}
	for i := range res.LigBorn {
		if relDiff(res.LigBorn[i], ligSolo.Born[i]) > 1e-3 {
			t.Fatalf("ligand Born radius %d shifted: %v vs %v", i, res.LigBorn[i], ligSolo.Born[i])
		}
	}
}

// The reuse path must track a from-scratch build of the merged complex.
// They are not identical — the merged build re-culls the surface at the
// interface (desolvation) while the reuse path freezes the surfaces, and
// the merged octree differs — so the comparison band is loose at contact
// distance and tight at separation.
func TestComplexTracksFullRebuild(t *testing.T) {
	rec, lig, cx := complexFixture(t, 500, 80)
	recBall, recR := geom.EnclosingBall(rec.Mol.Positions())
	_, ligR := geom.EnclosingBall(lig.Mol.Positions())
	cases := []struct {
		gap float64
		tol float64
	}{
		{25, 0.01},
		{8, 0.03},
		{2, 0.10},
	}
	for _, tc := range cases {
		tr := geom.Translate(recBall.Add(geom.V(recR+ligR+tc.gap, 0, 0)))
		fast, err := cx.Epol(tr)
		if err != nil {
			t.Fatal(err)
		}
		merged := molecule.Merge("cx", rec.Mol, lig.Mol.ApplyTransform(tr))
		surf, err := surface.Build(merged, surface.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewSystem(merged, surf, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ref := mustRun(t, full, RunSpec{})
		rel := math.Abs(fast.Epol-ref.Epol) / math.Abs(ref.Epol)
		if rel > tc.tol {
			t.Errorf("gap %v Å: reuse %v vs rebuild %v (rel %v > %v)",
				tc.gap, fast.Epol, ref.Epol, rel, tc.tol)
		}
	}
}

// Pose energies must be invariant under the pose's rotational part when
// the translation keeps the same separation (isotropy sanity check).
func TestComplexRotationalSanity(t *testing.T) {
	_, _, cx := complexFixture(t, 300, 50)
	// Far enough that even the residual dipole–dipole cross term (∝ r⁻³)
	// is below the tolerance.
	base := geom.Translate(geom.V(900, 0, 0))
	e0, err := cx.Epol(base)
	if err != nil {
		t.Fatal(err)
	}
	// Rotating the ligand about its own placement axis changes nothing
	// for a far pose (no interaction).
	rot := base.Compose(geom.Rotate(geom.V(0, 0, 1), 1.3))
	e1, err := cx.Epol(rot)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(e1.Epol-e0.Epol) / math.Abs(e0.Epol); rel > 1e-6 {
		t.Errorf("far-pose energy changed under ligand rotation: %v", rel)
	}
}

func TestComplexParamsMismatch(t *testing.T) {
	rec := buildSys(t, 100, DefaultParams())
	p2 := DefaultParams()
	p2.Accuracy.EpsEpol = 0.5
	lig := buildSys(t, 100, p2)
	if _, err := NewComplex(rec, lig); err == nil {
		t.Error("mismatched params accepted")
	}
}

// Approaching poses must become more favorable than far ones for an
// attractive complex... at minimum, energies are finite, negative, and
// differ between near and far (the cross terms engage).
func TestComplexCrossTermsEngage(t *testing.T) {
	rec, lig, cx := complexFixture(t, 400, 60)
	recBall, recR := geom.EnclosingBall(rec.Mol.Positions())
	_, ligR := geom.EnclosingBall(lig.Mol.Positions())
	far, err := cx.Epol(geom.Translate(geom.V(700, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	near, err := cx.Epol(geom.Translate(recBall.Add(geom.V(recR+ligR+2, 0, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if near.Epol == far.Epol {
		t.Error("near pose identical to far pose — cross terms inert")
	}
	if near.Epol >= 0 || far.Epol >= 0 {
		t.Error("complex energies not negative")
	}
	// Near pose raises Born radii of interface atoms (mutual descreening).
	raised := 0
	for i := range near.RecBorn {
		if near.RecBorn[i] > far.RecBorn[i]*1.001 {
			raised++
		}
	}
	if raised == 0 {
		t.Error("no receptor Born radii raised by a contact ligand")
	}
}
