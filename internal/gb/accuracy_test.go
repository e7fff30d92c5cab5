package gb

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// TestAccuracyResolution pins how Params resolve to an effective
// accuracy point: DefaultParams carries DefaultAccuracy, a zero Accuracy
// resolves to it, and a non-zero Accuracy's own zero fields take the
// defaults — except Order, where 0 means monopole.
func TestAccuracyResolution(t *testing.T) {
	if got := DefaultParams().Accuracy; got != DefaultAccuracy() {
		t.Errorf("DefaultParams().Accuracy = %+v, want DefaultAccuracy %+v", got, DefaultAccuracy())
	}
	unset := DefaultParams()
	unset.Accuracy = Accuracy{}
	if got := unset.EffectiveAccuracy(); got != DefaultAccuracy() {
		t.Errorf("zero Accuracy resolution: %+v, want %+v", got, DefaultAccuracy())
	}

	p := DefaultParams()
	p.Accuracy = Accuracy{EpsEpol: 0.5}
	got := p.EffectiveAccuracy()
	want := Accuracy{EpsBorn: 0.9, EpsEpol: 0.5, QuadOrder: 1, Order: OrderMonopole}
	if got != want {
		t.Errorf("explicit resolution: %+v, want %+v", got, want)
	}

	// Setting one field on DefaultParams keeps the dipole default.
	p = DefaultParams()
	p.Accuracy.EpsEpol = 0.5
	want = Accuracy{EpsBorn: 0.9, EpsEpol: 0.5, QuadOrder: 1, Order: OrderDipole}
	if got := p.EffectiveAccuracy(); got != want {
		t.Errorf("one-field resolution: %+v, want %+v", got, want)
	}

	if d := DefaultAccuracy(); d.Order != OrderDipole || d.EpsBorn != 0.9 || d.QuadOrder != 1 {
		t.Errorf("DefaultAccuracy = %+v", d)
	}
	if !(Accuracy{}).IsZero() || DefaultAccuracy().IsZero() {
		t.Error("IsZero misclassifies")
	}
}

// TestAccuracyDefaultBitwiseCompatible pins the three ways of asking for
// the default point to one computation: DefaultParams, a zeroed Accuracy
// and the explicit literal give bitwise-identical results.
func TestAccuracyDefaultBitwiseCompatible(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("accdef", 300, 17), 300, 17)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defSys, err := NewSystem(m, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := mustRun(t, defSys, RunSpec{})
	for _, acc := range []Accuracy{{}, {EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: 1}} {
		p := DefaultParams()
		p.Accuracy = acc
		sys, err := NewSystem(m, surf, p)
		if err != nil {
			t.Fatal(err)
		}
		b := mustRun(t, sys, RunSpec{})
		if math.Float64bits(a.Epol) != math.Float64bits(b.Epol) {
			t.Errorf("Accuracy %+v changed Epol: %v vs %v", acc, b.Epol, a.Epol)
		}
		for i := range a.Born {
			if math.Float64bits(a.Born[i]) != math.Float64bits(b.Born[i]) {
				t.Fatalf("Accuracy %+v changed Born[%d]: %v vs %v", acc, i, b.Born[i], a.Born[i])
			}
		}
	}
}

// TestAccuracyValidate pins the spec's own validation.
func TestAccuracyValidate(t *testing.T) {
	cases := []struct {
		name string
		acc  Accuracy
		ok   bool
	}{
		{"zero means defaults", Accuracy{}, true},
		{"default point", DefaultAccuracy(), true},
		{"negative eps", Accuracy{EpsBorn: -0.5}, false},
		{"bin wider than eps", Accuracy{EpsEpol: 0.5, BinWidth: 0.6}, false},
		{"bin wider than defaulted eps", Accuracy{BinWidth: 1.0}, false},
		{"negative bin", Accuracy{BinWidth: -0.1}, false},
		{"quad order too high", Accuracy{QuadOrder: 9}, false},
		{"order out of range", Accuracy{Order: 3}, false},
		{"negative order", Accuracy{Order: -1}, false},
		{"negative target", Accuracy{TargetError: -1}, false},
		{"quadrupole fine", Accuracy{Order: 2, QuadOrder: 3}, true},
	}
	for _, c := range cases {
		if err := c.acc.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	for _, c := range nonFiniteAccuracies() {
		if err := c.acc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.acc)
		}
	}
}

type namedAccuracy struct {
	name string
	acc  Accuracy
}

// nonFiniteAccuracies puts +Inf, −Inf and NaN into each float field of
// the default point in turn. Validate, NewSystem and WithAccuracy must
// refuse every one: an infinite ε admits every separated node pair as
// far and an infinite bin width merges every radius class, so a run at
// either returns a far-off energy with no error.
func nonFiniteAccuracies() []namedAccuracy {
	var out []namedAccuracy
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, f := range []struct {
			name string
			set  func(*Accuracy)
		}{
			{"EpsBorn", func(a *Accuracy) { a.EpsBorn = v }},
			{"EpsEpol", func(a *Accuracy) { a.EpsEpol = v }},
			{"BinWidth", func(a *Accuracy) { a.BinWidth = v }},
			{"TargetError", func(a *Accuracy) { a.TargetError = v }},
		} {
			a := DefaultAccuracy()
			f.set(&a)
			out = append(out, namedAccuracy{fmt.Sprintf("%s=%v", f.name, v), a})
		}
	}
	return out
}

// TestParamsRejectEpsBinAboveEpsEpol pins the bin-width bound through
// Params: bins wider than the energy criterion silently degrade the
// Fig. 3 histogram bound and must be rejected, not absorbed.
func TestParamsRejectEpsBinAboveEpsEpol(t *testing.T) {
	p := DefaultParams()
	p.Accuracy.EpsEpol, p.Accuracy.BinWidth = 0.9, 1.5
	err := p.Validate()
	if err == nil {
		t.Fatal("BinWidth > EpsEpol passed Validate")
	}
	if !strings.Contains(err.Error(), "EpsEpol") {
		t.Errorf("rejection does not name the bound: %v", err)
	}
	m := molecule.Exactly(molecule.Globule("bin", 50, 3), 50, 3)
	surf, serr := surface.Build(m, surface.DefaultConfig())
	if serr != nil {
		t.Fatal(serr)
	}
	if _, err := NewSystem(m, surf, p); err == nil {
		t.Error("NewSystem accepted BinWidth > EpsEpol")
	}
}

// TestWithAccuracyMatchesDedicatedSystem pins the shallow-copy path:
// running a prepared quadrupole system at another point via WithAccuracy
// is bitwise the same as building a system at that point directly (same
// surface) — one System serves many accuracy points.
func TestWithAccuracyMatchesDedicatedSystem(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("ovr", 300, 23), 300, 23)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Accuracy = Accuracy{EpsBorn: 0.3, EpsEpol: 0.3, BinWidth: 0.3 / 8, QuadOrder: 1, Order: OrderQuadrupole}
	host, err := NewSystem(m, surf, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range []Accuracy{
		{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: OrderDipole},
		{EpsBorn: 1.2, EpsEpol: 1.2, QuadOrder: 1, Order: OrderMonopole},
		{EpsBorn: 0.6, EpsEpol: 0.6, QuadOrder: 1, Order: OrderQuadrupole},
	} {
		ws, err := host.WithAccuracy(acc)
		if err != nil {
			t.Fatalf("WithAccuracy %+v: %v", acc, err)
		}
		over := mustRun(t, ws, RunSpec{})
		dp := DefaultParams()
		dp.Accuracy = acc
		dedicated, err := NewSystem(m, surf, dp)
		if err != nil {
			t.Fatal(err)
		}
		direct := mustRun(t, dedicated, RunSpec{})
		if math.Float64bits(over.Epol) != math.Float64bits(direct.Epol) {
			t.Errorf("WithAccuracy at %+v: Epol %v, dedicated system %v", acc, over.Epol, direct.Epol)
		}
	}
}

// TestWithAccuracyBuildsMissingMoments pins the shallow-copy contract:
// raising a dipole system to quadrupole via WithAccuracy builds the
// second-moment aggregates on the copy (the original is untouched) and
// matches a system built at quadrupole from scratch.
func TestWithAccuracyBuildsMissingMoments(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("wacc", 300, 29), 300, 29)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSystem(m, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	baseline := mustRun(t, base, RunSpec{})

	acc := Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: OrderQuadrupole}
	up, err := base.WithAccuracy(acc)
	if err != nil {
		t.Fatal(err)
	}
	dp := DefaultParams()
	dp.Accuracy = acc
	dedicated, err := NewSystem(m, surf, dp)
	if err != nil {
		t.Fatal(err)
	}
	got, want := mustRun(t, up, RunSpec{}), mustRun(t, dedicated, RunSpec{})
	if math.Float64bits(got.Epol) != math.Float64bits(want.Epol) {
		t.Errorf("WithAccuracy quadrupole Epol %v, dedicated %v", got.Epol, want.Epol)
	}

	// The original system is untouched.
	again := mustRun(t, base, RunSpec{})
	if math.Float64bits(again.Epol) != math.Float64bits(baseline.Epol) {
		t.Errorf("WithAccuracy perturbed the receiver: %v vs %v", again.Epol, baseline.Epol)
	}

	if _, err := base.WithAccuracy(Accuracy{EpsBorn: -1}); err == nil {
		t.Error("WithAccuracy accepted an invalid point")
	}
	for _, c := range nonFiniteAccuracies() {
		if _, err := base.WithAccuracy(c.acc); err == nil {
			t.Errorf("WithAccuracy accepted %s", c.name)
		}
	}
	same, err := base.WithAccuracy(Accuracy{})
	if err != nil || same != base {
		t.Errorf("zero accuracy should return the receiver unchanged (got %p vs %p, err %v)", same, base, err)
	}
}

// TestOrder2CheckpointResume is the PR 8 resume regression at p = 2: the
// quadrupole payload (9 extra floats per surface point in the integrals
// snapshot) round-trips through a kill/resume cycle to bitwise-identical
// results.
func TestOrder2CheckpointResume(t *testing.T) {
	const P = 4
	m := molecule.Exactly(molecule.Globule("ck2", 300, 31), 300, 31)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Accuracy = Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: OrderQuadrupole}
	s, err := NewSystem(m, surf, p)
	if err != nil {
		t.Fatal(err)
	}

	sinkA := &memSink{}
	resA, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{ForceProtocol: true}, Checkpoint: sinkA})
	if err != nil {
		t.Fatal(err)
	}

	sinkB := &memSink{}
	_, err = s.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: crashAllAt(P, 4)}, Checkpoint: sinkB})
	if err == nil {
		t.Fatal("killing every rank should fail the run")
	}
	ck := sinkB.latest(t)
	if ck.Phase != PhaseIntegrals {
		t.Fatalf("last checkpoint at phase %s, want %s", ck.Phase, PhaseIntegrals)
	}

	resB, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{ForceProtocol: true}, Resume: ck})
	if err != nil {
		t.Fatalf("quadrupole resume failed: %v", err)
	}
	if math.Float64bits(resB.Epol) != math.Float64bits(resA.Epol) {
		t.Errorf("resumed quadrupole Epol %v != uninterrupted %v", resB.Epol, resA.Epol)
	}
	for i := range resA.Born {
		if math.Float64bits(resB.Born[i]) != math.Float64bits(resA.Born[i]) {
			t.Fatalf("resumed Born[%d] differs", i)
		}
	}
}

// TestCanResumeRejectsOrderMismatch pins the shape guard the supervisor
// leans on: a checkpoint saved at one expansion order cannot silently
// resume a system at another (the integrals payload shape differs), and
// CanResume reports it instead of corrupting the run.
func TestCanResumeRejectsOrderMismatch(t *testing.T) {
	const P = 3
	m := molecule.Exactly(molecule.Globule("ckmix", 200, 37), 200, 37)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mkSys := func(order int) *System {
		p := DefaultParams()
		p.Accuracy = Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: order}
		s, err := NewSystem(m, surf, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dip, quad := mkSys(OrderDipole), mkSys(OrderQuadrupole)

	sink := &memSink{}
	if _, err := dip.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: crashAllAt(P, 4)}, Checkpoint: sink}); err == nil {
		t.Fatal("killing every rank should fail the run")
	}
	ck := sink.latest(t)
	if ck.Phase != PhaseIntegrals {
		t.Fatalf("checkpoint phase %s, want %s", ck.Phase, PhaseIntegrals)
	}

	if err := dip.CanResume(ck); err != nil {
		t.Errorf("same-order CanResume rejected its own checkpoint: %v", err)
	}
	if err := quad.CanResume(ck); err == nil {
		t.Error("quadrupole system accepted a dipole integrals checkpoint")
	}
	if err := dip.CanResume(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
}
