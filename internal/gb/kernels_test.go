package gb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// kernelPath names the host's features and the kernel path in use, for
// the failure messages of the bitwise tests: exact-math bits are
// reproducible per host (DESIGN.md §16).
func kernelPath() string {
	path := "go"
	if vecKernels {
		path = "avx2"
	}
	return fmt.Sprintf("cpu avx2=%v fma=%v os-ymm=%v, kernels=%s",
		hostCPU.avx2, hostCPU.fma, hostCPU.osYMM, path)
}

// vecHost records whether this host runs the vector kernels, before any
// test switches them.
var vecHost = vecKernels

// requireVec skips t on hosts without the vector path.
func requireVec(t testing.TB) {
	t.Helper()
	if !vecHost {
		t.Skipf("no vector kernels on this host (%s): nothing to compare", kernelPath())
	}
}

// withKernels runs the traversals on the vector (on) or Go (off) kernels
// until the test ends.
func withKernels(t testing.TB, on bool) {
	t.Helper()
	prev := vecKernels
	vecKernels = on && vecHost
	t.Cleanup(func() { vecKernels = prev })
}

// TestExpReplicaMatchesMathExp: the lane-wise exp returns math.Exp's bits
// on every exponent it accepts, and rejects exactly those outside
// (−708, 708) and NaN.
func TestExpReplicaMatchesMathExp(t *testing.T) {
	requireVec(t)
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	r := rand.New(rand.NewSource(7))
	edges := []float64{0, math.Copysign(0, -1), -5e-324, 5e-324, -707.9999999999999, -708,
		707.9999999999999, 708, -745.2, math.Inf(-1), math.Inf(1), math.NaN(), -1e-300, -0.5, 1}
	var x, got [4]float64
	check := func(ok uint8) {
		for l := range x {
			in := math.Abs(x[l]) < 708
			if (ok&(1<<l) != 0) != in {
				t.Fatalf("exp(%v): lane accepted=%v, want %v (%s)", x[l], ok&(1<<l) != 0, in, kernelPath())
			}
			if in && math.Float64bits(got[l]) != math.Float64bits(math.Exp(x[l])) {
				t.Fatalf("exp(%v) = %v, math.Exp %v (%s)", x[l], got[l], math.Exp(x[l]), kernelPath())
			}
		}
	}
	for i := 0; i+4 <= len(edges); i += 4 {
		copy(x[:], edges[i:i+4])
		check(expAVX(&x, &got))
	}
	for i := 0; i < n; i++ {
		for l := range x {
			x[l] = -708 * r.Float64()
		}
		check(expAVX(&x, &got))
	}
}

// kernelFingerprint is what the kernels feed: Epol bits, every Born
// radius and the per-core operation counts.
func kernelFingerprint(res *Result) string {
	h := uint64(14695981039346656037)
	for _, r := range res.Born {
		h = (h ^ math.Float64bits(r)) * 1099511628211
	}
	return fmt.Sprintf("epol=%x born=%x ops=%v", math.Float64bits(res.Epol), h, res.PerCoreOps)
}

// TestKernelsMatchGoLoops is the oracle of the vector kernels: every run
// on them equals the Go loops bit for bit, over roster molecules ×
// expansion orders × layouts, plus the tuner's reference point (monopole,
// ε = 0.3: an energy phase that is nearly all exact pairs) on a serve-size
// globule at two ranks.
func TestKernelsMatchGoLoops(t *testing.T) {
	requireVec(t)
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	layouts := []RunSpec{{}, {Processes: 2}, {ThreadsPerProcess: 2}}
	compare := func(label string, s *System, spec RunSpec) {
		t.Helper()
		run := func(on bool) string {
			withKernels(t, on)
			return kernelFingerprint(mustRun(t, s, spec))
		}
		if vec, gol := run(true), run(false); vec != gol {
			t.Errorf("%s %+v: vector kernels %s, Go loops %s (%s)", label, spec, vec, gol, kernelPath())
		}
	}
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			continue
		}
		base := newTestSystem(t, molecule.ZDockMolecule(e), surface.DefaultConfig(), DefaultParams())
		for _, ord := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
			acc := DefaultAccuracy()
			acc.Order = ord
			s, err := base.WithAccuracy(acc)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range layouts {
				compare(fmt.Sprintf("%s order %d", e.Name, ord), s, spec)
			}
		}
	}
	n := 500
	m := molecule.Exactly(molecule.Globule("globule-500", n, int64(n)), n, int64(n))
	p := DefaultParams()
	p.Accuracy = Accuracy{EpsBorn: 0.3, EpsEpol: 0.3, BinWidth: 0.075, QuadOrder: 2, Order: OrderMonopole}
	cfg := surface.DefaultConfig()
	cfg.RuleDegree = 2
	compare("tuner reference", newTestSystem(t, m, cfg, p), RunSpec{Processes: 2})
}

// FuzzNearKernels drives the three kernels with arbitrary positions,
// radii, charges and weights — coincident points, exponents past −708,
// infinities and NaNs included — and requires the Go loops' bits.
func FuzzNearKernels(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint8(7), 1.5, 0.0)
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), 0.0, 0.0)
	f.Add(int64(3), uint8(9), uint8(2), uint8(33), 1e-3, 400.0)
	f.Add(int64(4), uint8(4), uint8(4), uint8(4), math.Inf(1), math.NaN())
	f.Add(int64(5), uint8(6), uint8(5), uint8(2), -2.0, 1e300)
	f.Fuzz(func(t *testing.T, seed int64, nu, nv, nq uint8, radius, spread float64) {
		requireVec(t)
		r := rand.New(rand.NewSource(seed))
		// val draws mostly ordinary values, and now and then the fuzzed
		// ones or an edge value.
		val := func(scale float64) float64 {
			switch r.Intn(16) {
			case 0:
				return radius
			case 1:
				return spread
			case 2:
				return []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), 1e-310, -1}[r.Intn(6)]
			}
			return scale * (r.Float64()*2 - 1)
		}
		vec3 := func() geom.Vec3 {
			if r.Intn(8) == 0 {
				return geom.Vec3{}
			}
			s := 4.0
			if !math.IsNaN(spread) && spread != 0 {
				s = spread
			}
			return geom.V(val(s), val(s), val(s))
		}
		atoms := func(n int) ([]atomRec, []float64) {
			recs, radii := make([]atomRec, n), make([]float64, n)
			for i := range recs {
				recs[i] = atomRec{vec3(), val(1)}
				radii[i] = math.Abs(val(3))
				if r.Intn(4) == 0 {
					radii[i] = val(3)
				}
			}
			return recs, radii
		}
		nU, nV, nQ := int(nu%40)+1, int(nv%9)+1, int(nq%40)
		ur, uR := atoms(nU)
		vr, vR := atoms(nV)
		// The quadrature points, visited through a shuffled item list as a
		// tree leaf visits them.
		pts := make([]surface.QPoint, nQ)
		for i := range pts {
			pts[i] = surface.QPoint{Pos: vec3(), Normal: vec3(), Weight: val(1)}
		}
		items := make([]int32, nQ)
		for i, k := range r.Perm(nQ) {
			items[i] = int32(k)
		}
		same := func(label string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: vector %v (%x), Go %v (%x) (%s)", label, a, math.Float64bits(a), b, math.Float64bits(b), kernelPath())
			}
		}

		// Born: the atoms of ur as one gather list against the points.
		s := &System{atomRecs: ur}
		for _, r4 := range []bool{false, true} {
			sc := &bornScratch{}
			for p := range ur {
				sc.pos = append(sc.pos, int32(p))
			}
			got := s.bornLanes(sc, pts, items, r4)
			for p := range ur {
				same(fmt.Sprintf("born r4=%v atom %d", r4, p), got[p], bornAtomSum(ur[p].pos, pts, items, r4))
			}
		}

		// Energy: ur split into blocks against vr, summed a-major.
		ns := &nearScratch{}
		terms := nearTermsOf(ns, ur, uR, vr, vR)
		for a := range ur {
			for b := range vr {
				want := ur[a].q * vr[b].q * (1 / fGB(ur[a].pos.Dist2(vr[b].pos), uR[a]*vR[b]))
				same(fmt.Sprintf("pair (%d,%d)", a, b), terms[b][a], want)
			}
		}

		// Far table: the radii as class sums at one distance.
		r2 := val(50) * val(50)
		got, want := make([]farKernel, nU), make([]farKernel, nU)
		withKernels(t, true)
		farTable(uR, r2, got)
		vecKernels = false
		farTable(uR, r2, want)
		for k := range got {
			same(fmt.Sprintf("far e[%d]", k), got[k].e, want[k].e)
			same(fmt.Sprintf("far invF[%d]", k), got[k].invF, want[k].invF)
		}
	})
}

// nearTermsOf runs the energy kernel for source atoms ur against target
// atoms vr and returns its terms by [target][source].
func nearTermsOf(ns *nearScratch, ur []atomRec, uR []float64, vr []atomRec, vR []float64) [][]float64 {
	n := len(ur)
	groups := (n + 3) / 4
	ns.reserve(groups, len(vr), 0)
	for i := range ur {
		setLane(ns.lanes, i, &ur[i], uR[i])
	}
	for i := n; i < 4*groups; i++ {
		setLaneFrom(ns.lanes, i, n-1)
	}
	ns.runTerms(vr, vR, n, groups)
	out := make([][]float64, len(vr))
	for b := range vr {
		for a := range ur {
			out[b] = append(out[b], ns.terms[a*len(vr)+b])
		}
	}
	return out
}

// BenchmarkNearKernels reports ns per pair of each kernel on the vector
// and the Go path: the Born loop over a 32-point quadrature leaf, the
// energy pair term and the far kernel table entry.
func BenchmarkNearKernels(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const nAtoms, nQ, nV = 64, 32, 4
	ur, uR := make([]atomRec, nAtoms), make([]float64, nAtoms)
	for i := range ur {
		ur[i] = atomRec{geom.V(r.Float64()*20, r.Float64()*20, r.Float64()*20), r.Float64() - 0.5}
		uR[i] = 1.5 + 2*r.Float64()
	}
	pts, items := make([]surface.QPoint, nQ), make([]int32, nQ)
	for i := range pts {
		pts[i] = surface.QPoint{Pos: geom.V(r.Float64()*20, r.Float64()*20, r.Float64()*20),
			Normal: geom.V(r.Float64(), r.Float64(), r.Float64()).Unit(), Weight: r.Float64()}
		items[i] = int32(i)
	}
	vr, vR := ur[:nV], uR[:nV]
	s := &System{atomRecs: ur}
	for _, path := range []struct {
		name string
		on   bool
	}{{"avx2", true}, {"go", false}} {
		if path.on && !vecHost {
			continue
		}
		b.Run("born/"+path.name, func(b *testing.B) {
			sc := &bornScratch{}
			for i := 0; i < b.N; i++ {
				if path.on {
					sc.pos = sc.pos[:0]
					for p := range ur {
						sc.pos = append(sc.pos, int32(p))
					}
					s.bornLanes(sc, pts, items, false)
					continue
				}
				for p := range ur {
					sinkF += bornAtomSum(ur[p].pos, pts, items, false)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nAtoms*nQ), "ns/pair")
		})
		b.Run("energy/"+path.name, func(b *testing.B) {
			ns := &nearScratch{}
			for i := 0; i < b.N; i++ {
				if path.on {
					groups := nAtoms / 4
					ns.reserve(groups, nV, 0)
					for i := range ur {
						setLane(ns.lanes, i, &ur[i], uR[i])
					}
					ns.runTerms(vr, vR, nAtoms, groups)
					continue
				}
				sum, _ := nearSum(ur, uR, vr, vR, false, false)
				sinkF += sum
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nAtoms*nV), "ns/pair")
		})
		b.Run("far-table/"+path.name, func(b *testing.B) {
			withKernels(b, path.on)
			g := make([]farKernel, nAtoms)
			for i := 0; i < b.N; i++ {
				farTable(uR, 400, g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nAtoms), "ns/entry")
		})
	}
}

var sinkF float64
