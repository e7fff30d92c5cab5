package gb

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// Analytic Born anchor: a single ion of charge q and radius a has
// Epol = −(τ/2)·κ·q²/a.
func TestNaiveEpolBornIon(t *testing.T) {
	const a = 2.0
	s := newTestSystem(t, ion(a), surface.Config{IcoLevel: 1}, DefaultParams())
	radii, _ := s.NaiveBornRadiiR6()
	e, ops := s.NaiveEpol(radii)
	want := -0.5 * Tau(80) * CoulombKcal * 1 / a
	if math.Abs(e-want)/math.Abs(want) > 1e-9 {
		t.Errorf("Epol = %v, want %v", e, want)
	}
	if ops != 1 {
		t.Errorf("ops = %d", ops)
	}
	if e >= 0 {
		t.Error("polarization energy must be negative")
	}
}

// Two distant unit charges: Epol ≈ self terms + cross term −τκ q1q2/r.
func TestNaiveEpolTwoIons(t *testing.T) {
	m := &molecule.Molecule{Name: "two", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 2, Charge: 1},
		{Pos: geom.V(50, 0, 0), Radius: 2, Charge: 1},
	}}
	s := newTestSystem(t, m, surface.Config{IcoLevel: 2}, DefaultParams())
	radii, _ := s.NaiveBornRadiiR6()
	e, _ := s.NaiveEpol(radii)
	// At r = 50 >> R the GB function f → r.
	want := -0.5 * Tau(80) * CoulombKcal * (1/radii[0] + 1/radii[1] + 2.0/50)
	if math.Abs(e-want)/math.Abs(want) > 1e-3 {
		t.Errorf("Epol = %v, want ≈ %v", e, want)
	}
}

// The octree Epol converges to naive as ε → 0 and stays within ~1.5% at
// the paper's working ε (Fig. 10's error band).
func TestOctreeEpolMatchesNaive(t *testing.T) {
	m := molecule.Globule("g", 600, 41)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	sys, err := NewSystem(m, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := sys.NaiveBornRadiiR6()
	naive, naiveOps := sys.NaiveEpol(radii)

	cases := []struct {
		eps    float64
		maxRel float64
	}{
		{0.01, 1e-3},
		{0.3, 0.02},
		{0.9, 0.04},
	}
	prevRel := 0.0
	for _, tc := range cases {
		params.Accuracy.EpsEpol = tc.eps
		sys2, err := NewSystem(m, surf, params)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := sys2.Epol(radii)
		rel := math.Abs(e-naive) / math.Abs(naive)
		if rel > tc.maxRel {
			t.Errorf("eps=%v: relative error %v > %v (octree %v vs naive %v)",
				tc.eps, rel, tc.maxRel, e, naive)
		}
		if rel < prevRel {
			t.Errorf("eps=%v: error %v decreased from %v — speed/accuracy knob broken", tc.eps, rel, prevRel)
		}
		prevRel = rel
	}
	_ = naiveOps
}

// The octree's work advantage over naive O(M²) needs a molecule large
// enough for the far field to engage (§V-C: advantages grow with size).
func TestOctreeEpolWorkAdvantage(t *testing.T) {
	m := molecule.Globule("g", 4000, 49)
	s := newTestSystem(t, m, surface.DefaultConfig(), DefaultParams())
	radii, _ := s.BornRadii()
	_, ops := s.Epol(radii)
	// The octree evaluates ordered pairs; naive's ordered-equivalent count
	// is M².
	orderedNaive := int64(m.NumAtoms()) * int64(m.NumAtoms())
	if ops*2 >= orderedNaive {
		t.Errorf("octree Epol ops %d not < half of ordered naive %d", ops, orderedNaive)
	}
}

func TestEpolAggregatesHistogram(t *testing.T) {
	m := molecule.Globule("g", 200, 43)
	s := newTestSystem(t, m, surface.DefaultConfig(), DefaultParams())
	radii, _ := s.BornRadii()
	agg := s.buildEpolAggregates(radii)
	if agg.M < 1 || agg.M > maxEpolClasses {
		t.Fatalf("M = %d", agg.M)
	}
	// The root's classes must sum to the total charge.
	rootSum := 0.0
	for e := agg.off[0]; e < agg.off[1]; e++ {
		rootSum += agg.q[e]
	}
	if math.Abs(rootSum-s.Mol.TotalCharge()) > 1e-9 {
		t.Errorf("root histogram sums to %v, total charge %v", rootSum, s.Mol.TotalCharge())
	}
	// Every atom's class must bracket its radius. Recover the realized bin
	// width from powR: powR[k] = Rmin²(1+εbin)^(k+1).
	binBase := agg.powR[1] / agg.powR[0]
	for i, r := range radii {
		k := agg.class(r)
		lo := agg.Rmin * math.Pow(binBase, float64(k))
		hi := lo * binBase
		if r < lo*(1-1e-9) || (r > hi*(1+1e-9) && k < agg.M-1) {
			t.Fatalf("atom %d: radius %v outside class %d [%v, %v)", i, r, k, lo, hi)
		}
	}
}

func TestEpolAggregatesUniformRadii(t *testing.T) {
	// All radii equal → a single class.
	m := &molecule.Molecule{Name: "u", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1, Charge: 0.5},
		{Pos: geom.V(5, 0, 0), Radius: 1, Charge: -0.5},
	}}
	s := newTestSystem(t, m, surface.Config{IcoLevel: 1}, DefaultParams())
	agg := s.buildEpolAggregates([]float64{2.0, 2.0})
	if agg.M != 1 {
		t.Errorf("M = %d, want 1", agg.M)
	}
}

func TestEpolFarCriterion(t *testing.T) {
	// Fig. 3: far iff d > (ru+rv)(1+2/ε).
	f09 := epolFarFactor(0.9)
	if math.Abs(f09-(1+2/0.9)) > 1e-12 {
		t.Errorf("factor(0.9) = %v, want %v", f09, 1+2/0.9)
	}
	if epolFar(6.0, 1, 1, f09) { // threshold 2·3.22 = 6.44
		t.Error("6.0 < 6.44 judged far")
	}
	if !epolFar(6.5, 1, 1, f09) {
		t.Error("6.5 > 6.44 not far")
	}
	// Smaller ε → stricter.
	if epolFar(6.5, 1, 1, epolFarFactor(0.1)) {
		t.Error("ε=0.1 should need d > 42")
	}
	// A scaled factor multiplies the threshold.
	if epolFar(6.5, 1, 1, scaledFactor(0.9, 2, OrderDipole)) {
		t.Error("scale=2 should need d > 12.9")
	}
}

// Approximate math must stay close to exact math while changing the
// result (so the ablation has something to measure).
func TestApproxMathEpol(t *testing.T) {
	m := molecule.Globule("g", 300, 47)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exact := DefaultParams()
	approx := DefaultParams()
	approx.Math = ApproxMath
	se, err := NewSystem(m, surf, exact)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewSystem(m, surf, approx)
	if err != nil {
		t.Fatal(err)
	}
	radii, _ := se.BornRadii()
	ee, _ := se.Epol(radii)
	ea, _ := sa.Epol(radii)
	if rel := math.Abs(ee-ea) / math.Abs(ee); rel > 1e-2 {
		t.Errorf("approx math relative deviation %v too large", rel)
	}
	if ee == ea {
		t.Error("approximate math changed nothing")
	}
}

func TestFastMathKernels(t *testing.T) {
	for _, x := range []float64{1e-6, 0.1, 1, 2, 37.5, 1e6, 1e12} {
		got := fastInvSqrt(x)
		want := 1 / math.Sqrt(x)
		if math.Abs(got-want)/want > 3e-3 {
			t.Errorf("fastInvSqrt(%v) = %v, want %v", x, got, want)
		}
	}
	if !math.IsInf(fastInvSqrt(0), 1) || !math.IsInf(fastInvSqrt(-1), 1) {
		t.Error("fastInvSqrt non-positive handling")
	}
	for _, x := range []float64{0, -0.5, -1, -10, -100, 0.5, 1, 5} {
		got := fastExp(x)
		want := math.Exp(x)
		if math.Abs(got-want)/want > 1e-3 {
			t.Errorf("fastExp(%v) = %v, want %v", x, got, want)
		}
	}
	if fastExp(-1000) != 0 {
		t.Error("fastExp underflow")
	}
	if !math.IsInf(fastExp(1000), 1) {
		t.Error("fastExp overflow")
	}
}

func TestFGBLimits(t *testing.T) {
	// r → 0: f → sqrt(RiRj) (self-energy denominator).
	if math.Abs(fGB(0, 4)-2) > 1e-14 {
		t.Errorf("fGB(0) = %v", fGB(0, 4))
	}
	// r >> R: f → r.
	if math.Abs(fGB(1e6, 1)-1000) > 1e-3 {
		t.Errorf("fGB(large) = %v", fGB(1e6, 1))
	}
	// Monotone in r².
	if fGB(4, 1) >= fGB(9, 1) {
		t.Error("fGB not monotone in r²")
	}
}

func TestTau(t *testing.T) {
	if got := Tau(80); math.Abs(got-0.9875) > 1e-12 {
		t.Errorf("Tau(80) = %v", got)
	}
	if Tau(1) != 0 {
		t.Error("vacuum should give zero polarization prefactor")
	}
}
