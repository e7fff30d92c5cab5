package surface

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/quadrature"
)

func singleAtom(r float64) *molecule.Molecule {
	return &molecule.Molecule{Name: "atom", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: r, Charge: 1},
	}}
}

func TestSingleAtomAreaExact(t *testing.T) {
	// The weight correction makes a free sphere integrate to 4πr² exactly
	// at every level/degree.
	for _, level := range []int{1, 2, 3} {
		for _, deg := range []int{1, 2, 4} {
			const r = 1.7
			s, err := Build(singleAtom(r), Config{IcoLevel: level, RuleDegree: deg})
			if err != nil {
				t.Fatal(err)
			}
			want := 4 * math.Pi * r * r
			if math.Abs(s.Area-want)/want > 1e-12 {
				t.Errorf("level %d deg %d: area = %v, want %v", level, deg, s.Area, want)
			}
			if s.ExposedAtoms != 1 {
				t.Errorf("ExposedAtoms = %d", s.ExposedAtoms)
			}
		}
	}
}

func TestSingleAtomPointsOnSphereOutwardNormals(t *testing.T) {
	const r = 2.0
	s, err := Build(singleAtom(r), Config{IcoLevel: 2, RuleDegree: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range s.Points {
		if math.Abs(q.Pos.Norm()-r) > 1e-12 {
			t.Fatalf("point %d at radius %v", i, q.Pos.Norm())
		}
		if q.Normal.Dot(q.Pos) <= 0 {
			t.Fatalf("point %d has inward normal", i)
		}
		if math.Abs(q.Normal.Norm()-1) > 1e-12 {
			t.Fatalf("point %d normal not unit: %v", i, q.Normal.Norm())
		}
		if q.Weight <= 0 {
			t.Fatalf("point %d non-positive weight", i)
		}
		if q.Atom != 0 {
			t.Fatalf("point %d atom = %d", i, q.Atom)
		}
	}
}

// Born-radius anchor: for a free sphere of radius r, the surface r⁶
// integral Σ w (p−x)·n/|p−x|⁶ must equal 4π/r³ exactly (so R = r).
func TestSingleAtomBornIntegralExact(t *testing.T) {
	const r = 1.5
	s, err := Build(singleAtom(r), Config{IcoLevel: 1, RuleDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	x := geom.V(0, 0, 0)
	for _, q := range s.Points {
		d := q.Pos.Sub(x)
		sum += q.Weight * d.Dot(q.Normal) / math.Pow(d.Norm(), 6)
	}
	want := 4 * math.Pi / (r * r * r)
	if math.Abs(sum-want)/want > 1e-12 {
		t.Errorf("integral = %v, want %v", sum, want)
	}
}

func TestBuriedAtomContributesNothing(t *testing.T) {
	// A small atom at the center of a big one is fully buried.
	m := &molecule.Molecule{Name: "buried", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1.0},
		{Pos: geom.V(0, 0, 0), Radius: 3.0},
	}}
	s, err := Build(m, Config{IcoLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range s.Points {
		if q.Atom == 0 {
			t.Fatal("buried atom produced surface points")
		}
	}
	// The outer sphere is fully exposed.
	wantArea := 4 * math.Pi * 9.0
	if math.Abs(s.Area-wantArea)/wantArea > 1e-12 {
		t.Errorf("area = %v, want %v", s.Area, wantArea)
	}
	if s.ExposedAtoms != 1 {
		t.Errorf("ExposedAtoms = %d", s.ExposedAtoms)
	}
}

func TestTwoOverlappingAtomsLoseArea(t *testing.T) {
	m := &molecule.Molecule{Name: "pair", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1.5},
		{Pos: geom.V(1.5, 0, 0), Radius: 1.5},
	}}
	s, err := Build(m, Config{IcoLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	full := 2 * 4 * math.Pi * 1.5 * 1.5
	if s.Area >= full {
		t.Errorf("overlapping pair area %v >= two full spheres %v", s.Area, full)
	}
	// Analytic: each sphere loses a cap of height h = r − d/2 = 0.75;
	// cap area = 2πrh. Exposed = full − 2·2πrh.
	want := full - 2*2*math.Pi*1.5*0.75
	if math.Abs(s.Area-want)/want > 0.05 {
		t.Errorf("area = %v, analytic %v (>5%% off)", s.Area, want)
	}
	// No point of atom 0 may be inside atom 1 and vice versa.
	for _, q := range s.Points {
		other := m.Atoms[1-int(q.Atom)]
		if q.Pos.Dist(other.Pos) < other.Radius-1e-6 {
			t.Fatalf("point of atom %d buried inside the other", q.Atom)
		}
	}
}

func TestProbeAffectsCullingNotGeometry(t *testing.T) {
	// A free atom's surface is identical at any probe radius: the probe
	// only governs accessibility culling, never the integration sphere.
	m := singleAtom(1.5)
	s0, err := Build(m, Config{IcoLevel: 1, ProbeRadius: 0})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Build(m, Config{IcoLevel: 1, ProbeRadius: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Area-s0.Area) > 1e-12 {
		t.Errorf("probe changed a free atom's area: %v vs %v", s1.Area, s0.Area)
	}
	// But in a crevice, the probe culls patches a bare vdW test keeps:
	// two atoms at a gap the probe cannot enter.
	pair := &molecule.Molecule{Name: "gap", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1.5},
		{Pos: geom.V(3.4, 0, 0), Radius: 1.5}, // 0.4 Å gap — water cannot pass
	}}
	v0, err := Build(pair, Config{IcoLevel: 2, ProbeRadius: 0})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := Build(pair, Config{IcoLevel: 2, ProbeRadius: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Area >= v0.Area {
		t.Errorf("probe culling did not shrink crevice area: %v vs %v", v1.Area, v0.Area)
	}
}

func TestGlobuleSamplingDensity(t *testing.T) {
	m := molecule.Globule("g", 3000, 21)
	s, err := Build(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(s.NumPoints()) / float64(m.NumAtoms())
	// The paper's workloads carry ~4 q-points per atom (CMV: 3.8). The
	// sampler should land in the same regime for a protein-like globule.
	if ratio < 1 || ratio > 15 {
		t.Errorf("q-points per atom = %v, want O(4)", ratio)
	}
	// Interior atoms must be culled: far fewer points than atoms × 80.
	if s.NumPoints() >= m.NumAtoms()*80/2 {
		t.Errorf("culling ineffective: %d points for %d atoms", s.NumPoints(), m.NumAtoms())
	}
	if s.ExposedAtoms >= m.NumAtoms() {
		t.Error("every atom exposed in a globule interior")
	}
}

func TestConfigValidation(t *testing.T) {
	m := singleAtom(1)
	if _, err := Build(m, Config{IcoLevel: 9}); err == nil {
		t.Error("no error for absurd icosphere level")
	}
	if _, err := Build(m, Config{RuleDegree: 42}); err == nil {
		t.Error("no error for invalid rule degree")
	}
}

func TestApplyTransform(t *testing.T) {
	m := singleAtom(1.2)
	s, err := Build(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := geom.Translate(geom.V(10, 0, 0)).Compose(geom.Rotate(geom.V(0, 0, 1), 1.0))
	moved := s.ApplyTransform(tr)
	if moved.Area != s.Area || moved.NumPoints() != s.NumPoints() {
		t.Error("transform changed area or point count")
	}
	for i := range s.Points {
		if moved.Points[i].Pos.Dist(tr.Apply(s.Points[i].Pos)) > 1e-12 {
			t.Fatal("position not transformed")
		}
		if math.Abs(moved.Points[i].Normal.Norm()-1) > 1e-12 {
			t.Fatal("normal denormalized by transform")
		}
		if moved.Points[i].Weight != s.Points[i].Weight {
			t.Fatal("weight changed by transform")
		}
	}
	// Surface integral invariance: the Born integral of the moved surface
	// about the moved atom center matches the original.
	orig, movedSum := 0.0, 0.0
	x := geom.V(0, 0, 0)
	tx := tr.Apply(x)
	for i := range s.Points {
		d := s.Points[i].Pos.Sub(x)
		orig += s.Points[i].Weight * d.Dot(s.Points[i].Normal) / math.Pow(d.Norm(), 6)
		dm := moved.Points[i].Pos.Sub(tx)
		movedSum += moved.Points[i].Weight * dm.Dot(moved.Points[i].Normal) / math.Pow(dm.Norm(), 6)
	}
	if math.Abs(orig-movedSum)/math.Abs(orig) > 1e-10 {
		t.Errorf("integral changed under rigid motion: %v vs %v", orig, movedSum)
	}
}

func TestPerAtomAreaSumsToTotal(t *testing.T) {
	m := molecule.Globule("a", 600, 51)
	s, err := Build(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	areas := s.PerAtomArea(m.NumAtoms())
	sum := 0.0
	for _, a := range areas {
		sum += a
	}
	if math.Abs(sum-s.Area)/s.Area > 1e-12 {
		t.Errorf("per-atom areas sum to %v, total %v", sum, s.Area)
	}
	for i, a := range areas {
		if a < 0 {
			t.Fatalf("atom %d negative area %v", i, a)
		}
	}
}

func TestSurfacePositions(t *testing.T) {
	s, err := Build(singleAtom(1.0), Config{IcoLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps := s.Positions()
	if len(ps) != s.NumPoints() {
		t.Fatalf("Positions len = %d", len(ps))
	}
	for i := range ps {
		if ps[i] != s.Points[i].Pos {
			t.Fatal("Positions mismatch")
		}
	}
}

// referenceBuild is the sampler at its plainest, the oracle Build must
// match bit for bit: every other atom within reach of an atom's
// accessible sphere is a neighbour, found by brute force in index order,
// and each triangle centre is tested against the neighbours in that
// order. The expressions are the sampler's, operand for operand.
func referenceBuild(m *molecule.Molecule, cfg Config) (*Surface, error) {
	cfg = cfg.withDefaults()
	ss, err := referenceBuilds(m, cfg, []int{cfg.RuleDegree})
	if err != nil {
		return nil, err
	}
	return ss[0], nil
}

// referenceBuilds is referenceBuild at each of the given rule degrees,
// with one brute-force neighbour search per atom for all of them.
func referenceBuilds(m *molecule.Molecule, cfg Config, degrees []int) ([]*Surface, error) {
	cfg = cfg.withDefaults()
	rules := make([]quadrature.TriangleRule, len(degrees))
	ss := make([]*Surface, len(degrees))
	for d, deg := range degrees {
		var err error
		if rules[d], err = quadrature.Dunavant(deg); err != nil {
			return nil, err
		}
		ss[d] = &Surface{}
	}
	mesh := quadrature.Icosphere(cfg.IcoLevel)
	corr := 4 * 3.141592653589793 / mesh.Area()
	for i, a := range m.Atoms {
		rAcc := a.Radius + cfg.ProbeRadius
		var neighbors []int
		for j, b := range m.Atoms {
			rj := b.Radius + cfg.ProbeRadius
			if j != i && b.Pos.Dist(a.Pos) < rAcc+rj {
				neighbors = append(neighbors, j)
			}
		}
		buried := func(p geom.Vec3) bool {
			const tol = 1e-9
			for _, j := range neighbors {
				rj := m.Atoms[j].Radius + cfg.ProbeRadius
				if p.Dist2(m.Atoms[j].Pos) < (rj-tol)*(rj-tol) {
					return true
				}
			}
			return false
		}
		exposed := false
		for _, tr := range mesh.Triangles {
			cen := mesh.Vertices[tr.A].Add(mesh.Vertices[tr.B]).Add(mesh.Vertices[tr.C]).Unit()
			if buried(a.Pos.Add(cen.Scale(rAcc))) {
				continue
			}
			exposed = true
			vertex := func(k int) geom.Vec3 { return a.Pos.Add(mesh.Vertices[k].Scale(a.Radius)) }
			for d, rule := range rules {
				s := ss[d]
				for _, qp := range rule.ForTriangle(nil, vertex(tr.A), vertex(tr.B), vertex(tr.C)) {
					dir := qp.P.Sub(a.Pos).Unit()
					w := qp.W * corr
					s.Points = append(s.Points, QPoint{Pos: a.Pos.Add(dir.Scale(a.Radius)), Normal: dir, Weight: w, Atom: int32(i)})
					s.Area += w
				}
			}
		}
		if exposed {
			for _, s := range ss {
				s.ExposedAtoms++
			}
		}
	}
	return ss, nil
}

// surfaceDiff describes the first difference between two surfaces,
// comparing every float by its bits, or returns "" if they are identical.
func surfaceDiff(got, want *Surface) string {
	if len(got.Points) != len(want.Points) {
		return fmt.Sprintf("%d points, want %d", len(got.Points), len(want.Points))
	}
	bits := func(q QPoint) [8]uint64 {
		f := math.Float64bits
		return [8]uint64{f(q.Pos.X), f(q.Pos.Y), f(q.Pos.Z), f(q.Normal.X), f(q.Normal.Y), f(q.Normal.Z), f(q.Weight), uint64(q.Atom)}
	}
	for i := range want.Points {
		if bits(got.Points[i]) != bits(want.Points[i]) {
			return fmt.Sprintf("point %d = %+v, want %+v", i, got.Points[i], want.Points[i])
		}
	}
	if math.Float64bits(got.Area) != math.Float64bits(want.Area) {
		return fmt.Sprintf("area %v, want %v", got.Area, want.Area)
	}
	if got.ExposedAtoms != want.ExposedAtoms {
		return fmt.Sprintf("%d exposed atoms, want %d", got.ExposedAtoms, want.ExposedAtoms)
	}
	return ""
}

// referenceConfigs span the sampler's knobs: the default, a 3-point rule,
// a finer mesh with plain vdW culling, and the icosahedron itself.
var referenceConfigs = []Config{
	DefaultConfig(),
	{IcoLevel: 1, RuleDegree: 2, ProbeRadius: 1.4},
	{IcoLevel: 2, RuleDegree: 1, ProbeRadius: 0},
	{IcoLevel: 0, RuleDegree: 3, ProbeRadius: 1.4},
}

// Build, and BuildWorkers at 1 to 4 workers, equal the reference
// sampler bit for bit on the roster's small molecules under every
// reference config, and on a 1,500-atom globule. One cull per molecule
// and culling config, emitted on 1 to 4 workers at every Dunavant degree
// (the default cull) or at two (the others), equals the reference at
// each degree.
func TestBuildMatchesReference(t *testing.T) {
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	var mols []*molecule.Molecule
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			break
		}
		mols = append(mols, molecule.ZDockMolecule(e))
	}
	mols = append(mols, molecule.Globule("p", 1500, 61))
	for _, m := range mols {
		for _, cfg := range referenceConfigs {
			want, err := referenceBuild(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := surfaceDiff(got, want); d != "" {
				t.Fatalf("%s %+v: Build: %s", m.Name, cfg, d)
			}
			for w := 1; w <= 4; w++ {
				got, err := BuildWorkers(m, cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if d := surfaceDiff(got, want); d != "" {
					t.Fatalf("%s %+v: BuildWorkers(%d): %s", m.Name, cfg, w, d)
				}
			}
		}
		// The culling configs of referenceConfigs: the rule degree plays
		// no part in a cull.
		for i, cull := range []struct {
			cfg     Config
			degrees []int
		}{
			{DefaultConfig(), []int{1, 2, 3, 4, 5, 6, 7, 8}},
			{referenceConfigs[2], []int{2, 5}},
			{referenceConfigs[3], []int{4, 8}},
		} {
			cfg, degrees := cull.cfg, cull.degrees
			wants, err := referenceBuilds(m, cfg, degrees)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Cull(m, cfg, 1+i%4)
			if err != nil {
				t.Fatal(err)
			}
			for d, deg := range degrees {
				got, err := c.Emit(deg, 1+(i+deg)%4)
				if err != nil {
					t.Fatal(err)
				}
				if diff := surfaceDiff(got, wants[d]); diff != "" {
					t.Fatalf("%s %+v: Emit(%d) from one cull: %s", m.Name, cfg, deg, diff)
				}
			}
		}
	}
}

// Two valid atoms 2·10⁴ Å apart, as ReadPQR accepts them: sizing the
// neighbour grid from their span asked for a 164 GB cell array and ended
// the process (and gbd with it) with a fatal out-of-memory error. Each is
// a free sphere.
func TestBuildFarApartAtoms(t *testing.T) {
	const far = 9999.999
	m := &molecule.Molecule{Name: "far", Atoms: []molecule.Atom{
		{Pos: geom.V(-far, -far, -far), Radius: 1.5, Charge: 1},
		{Pos: geom.V(far, far, far), Radius: 1.5, Charge: -1},
	}}
	s, err := Build(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPoints() != 160 || s.ExposedAtoms != 2 {
		t.Fatalf("%d points on %d exposed atoms, want 160 on 2", s.NumPoints(), s.ExposedAtoms)
	}
	want, err := referenceBuild(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := surfaceDiff(s, want); d != "" {
		t.Fatal(d)
	}
}

// The sampler's entries refuse a bad icosphere level, a bad rule degree,
// and a worker count below one or above the atoms; one worker is always
// allowed, even for a molecule without atoms.
func TestBuildWorkersValidation(t *testing.T) {
	pair := &molecule.Molecule{Name: "pair", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1.5},
		{Pos: geom.V(2, 0, 0), Radius: 1.5},
	}}
	for _, tc := range []struct {
		name    string
		cfg     Config
		workers int
	}{
		{"absurd level", Config{IcoLevel: 9}, 2},
		{"negative level", Config{IcoLevel: -1}, 1},
		{"bad rule degree", Config{RuleDegree: 42}, 2},
		{"no workers", DefaultConfig(), 0},
		{"negative workers", DefaultConfig(), -2},
		{"more workers than atoms", DefaultConfig(), 3},
	} {
		if _, err := BuildWorkers(pair, tc.cfg, tc.workers); err == nil {
			t.Errorf("BuildWorkers: %s accepted", tc.name)
		}
	}
	for _, w := range []int{0, 3} {
		if _, err := Cull(pair, DefaultConfig(), w); err == nil {
			t.Errorf("Cull: %d workers for 2 atoms accepted", w)
		}
	}
	c, err := Cull(pair, DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ degree, workers int }{{0, 1}, {9, 1}, {1, 0}, {1, 3}} {
		if _, err := c.Emit(tc.degree, tc.workers); err == nil {
			t.Errorf("Emit(%d, %d) accepted", tc.degree, tc.workers)
		}
	}
	empty := &molecule.Molecule{Name: "empty"}
	if s, err := BuildWorkers(empty, DefaultConfig(), 1); err != nil || s.NumPoints() != 0 {
		t.Errorf("empty molecule on one worker: %v, %v", s, err)
	}
	if _, err := BuildWorkers(empty, DefaultConfig(), 2); err == nil {
		t.Error("empty molecule on two workers accepted")
	}
}

// A NaN or infinite probe radius, or one that makes the inflated radii
// negative, culled nothing: on a 300-atom globule every atom came out
// exposed, with 80 points each and 8,033.7 Å² of SASA, where the default
// probe exposes 141 atoms and 468.8 Å². Every non-finite or negative
// probe is refused; zero stays the plain vdW cull.
func TestRejectsProbeThatCullsNothing(t *testing.T) {
	m := molecule.Exactly(molecule.Globule("globule", 300, 1), 300, 1)
	for _, probe := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, -1e-12} {
		if s, err := Build(m, Config{ProbeRadius: probe}); err == nil {
			t.Errorf("probe %v accepted: %d of %d atoms exposed, %.1f Å²", probe, s.ExposedAtoms, m.NumAtoms(), s.Area)
		}
		if _, err := Cull(m, Config{ProbeRadius: probe}, 2); err == nil {
			t.Errorf("Cull: probe %v accepted", probe)
		}
	}
	for _, probe := range []float64{0, 1.4} {
		if _, err := Build(m, Config{ProbeRadius: probe}); err != nil {
			t.Errorf("probe %v refused: %v", probe, err)
		}
	}
}

// A multi-worker build returns after its pool's goroutines have exited.
func TestBuildWorkersLeavesNoGoroutine(t *testing.T) {
	m := molecule.Globule("g", 400, 3)
	before := runtime.NumGoroutine()
	for w := 2; w <= 4; w++ {
		if _, err := BuildWorkers(m, DefaultConfig(), w); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%d goroutines after a %d-worker build, %d before", after, w, before)
		}
	}
}

// The finest icosphere level is accepted: a free atom keeps all 81,920
// triangles and still integrates to 4πr².
func TestFinestLevel(t *testing.T) {
	const r = 1.7
	s, err := BuildWorkers(singleAtom(r), Config{IcoLevel: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPoints() != 81920 {
		t.Errorf("%d points, want 81920", s.NumPoints())
	}
	if want := 4 * math.Pi * r * r; math.Abs(s.Area-want)/want > 1e-12 {
		t.Errorf("area = %v, want %v", s.Area, want)
	}
}

func TestSurfaceExports(t *testing.T) {
	s, err := Build(singleAtom(1.5), Config{IcoLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var xyz bytes.Buffer
	if err := s.WriteXYZ(&xyz); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(xyz.String()), "\n")
	if len(lines) != s.NumPoints()+2 {
		t.Errorf("XYZ lines = %d, want %d", len(lines), s.NumPoints()+2)
	}
	if lines[0] != fmt.Sprint(s.NumPoints()) {
		t.Errorf("XYZ count line = %q", lines[0])
	}
	var ply bytes.Buffer
	if err := s.WritePLY(&ply); err != nil {
		t.Fatal(err)
	}
	out := ply.String()
	if !strings.HasPrefix(out, "ply\n") || !strings.Contains(out, "end_header") {
		t.Error("PLY header malformed")
	}
	body := out[strings.Index(out, "end_header\n")+len("end_header\n"):]
	if got := strings.Count(body, "\n"); got != s.NumPoints() {
		t.Errorf("PLY vertex lines = %d, want %d", got, s.NumPoints())
	}
}
