package gb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
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
// on them equals the Go loops bit for bit, over roster molecules × the
// default and the paper's leaf capacities × expansion orders × layouts,
// the distributed-data driver at three ranks and Complex.Epol with the
// first roster molecule docked at contact, plus the tuner's reference
// point (monopole, ε = 0.3: an energy phase that is nearly all exact
// pairs) on a serve-size globule at two ranks.
func TestKernelsMatchGoLoops(t *testing.T) {
	requireVec(t)
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	layouts := []RunSpec{{}, {Processes: 2}, {ThreadsPerProcess: 2}}
	same := func(label string, run func() string) {
		t.Helper()
		withKernels(t, true)
		vec := run()
		withKernels(t, false)
		if gol := run(); vec != gol {
			t.Errorf("%s: vector kernels %s, Go loops %s (%s)", label, vec, gol, kernelPath())
		}
	}
	compare := func(label string, s *System, spec RunSpec) {
		t.Helper()
		same(fmt.Sprintf("%s %+v", label, spec), func() string { return kernelFingerprint(mustRun(t, s, spec)) })
	}
	roster := molecule.ZDockRoster()
	paper := DefaultParams()
	paper.LeafAtoms, paper.LeafQPoints = 8, 32
	for _, params := range []Params{DefaultParams(), paper} {
		lig := newTestSystem(t, molecule.ZDockMolecule(roster[0]), surface.DefaultConfig(), params)
		for _, e := range roster {
			if e.Atoms > maxAtoms {
				continue
			}
			base := newTestSystem(t, molecule.ZDockMolecule(e), surface.DefaultConfig(), params)
			for _, ord := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
				acc := DefaultAccuracy()
				acc.Order = ord
				s, err := base.WithAccuracy(acc)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %d/%d order %d", e.Name, params.LeafAtoms, params.LeafQPoints, ord)
				for _, spec := range layouts {
					compare(label, s, spec)
				}
				same(label+" distributed data P=3", func() string {
					res, err := s.RunMPIDistributedData(3)
					if err != nil {
						t.Fatal(err)
					}
					return kernelFingerprint(res)
				})
				l, err := lig.WithAccuracy(acc)
				if err != nil {
					t.Fatal(err)
				}
				cx, err := NewComplex(s, l)
				if err != nil {
					t.Fatal(err)
				}
				pose := contactPose(s, l)
				same(label+" complex at contact", func() string {
					pr, err := cx.Epol(pose)
					if err != nil {
						t.Fatal(err)
					}
					return kernelFingerprint(&Result{Epol: pr.Epol, Born: append(pr.RecBorn, pr.LigBorn...), PerCoreOps: []int64{pr.Ops}})
				})
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

// contactPose docks lig against rec: rotated, with its ball center at 0.8
// of the summed ball radii from rec's, so the cross passes meet both far
// pairs and exact leaf blocks.
func contactPose(rec, lig *System) geom.Transform {
	rc, lc := rec.TA.Nodes[0], lig.TA.Nodes[0]
	axis := geom.V(0.3, -0.5, 0.8).Unit()
	return geom.Translate(rc.Center.Add(axis.Scale(0.8 * (rc.Radius + lc.Radius)))).
		Compose(geom.Rotate(geom.V(1, 2, 3).Unit(), 0.7)).
		Compose(geom.Translate(lc.Center.Scale(-1)))
}

// TestPortableRunUsesGoLoops guards `make portable-test`: with FMA switched
// off through GODEBUG, math.Exp takes its non-FMA path, the start-up probe
// must reject the exp replica, and the suites run the Go loops that hosts
// without AVX2 run, not the vector path.
func TestPortableRunUsesGoLoops(t *testing.T) {
	if !slices.Contains(strings.Split(os.Getenv("GODEBUG"), ","), "cpu.fma=off") {
		t.Skip("GODEBUG does not switch FMA off")
	}
	if vecHost {
		t.Fatalf("GODEBUG=%s, but the vector kernels are on (%s)", os.Getenv("GODEBUG"), kernelPath())
	}
}

// FuzzNearKernels drives the three kernels with arbitrary positions,
// radii, charges and weights — coincident points, exponents past −708,
// infinities and NaNs included — and requires the Go loops' bits. The
// near kernels gather their lanes from a record array through position
// lists that repeat, descend or already fill whole lane groups, and the
// energy rows, cut into blocks of up to 64 atoms, must sum to nearSum's
// bits block by block.
func FuzzNearKernels(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint8(7), 1.5, 0.0)
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), 0.0, 0.0)
	f.Add(int64(3), uint8(9), uint8(2), uint8(33), 1e-3, 400.0)
	f.Add(int64(4), uint8(4), uint8(4), uint8(4), math.Inf(1), math.NaN())
	f.Add(int64(5), uint8(6), uint8(5), uint8(2), -2.0, 1e300)
	f.Add(int64(6), uint8(200), uint8(63), uint8(32), 2.0, 30.0)
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
		nRecs, nPos, nV, nQ := int(nu%64)+1, int(nu)+1, int(nv%64)+1, int(nq%40)
		recs, radii := atoms(nRecs)
		vr, vR := atoms(nV)
		// The gather list: random, repeated, descending, or rounded up
		// to whole lane groups so that padLanes adds nothing.
		pos := make([]int32, nPos)
		mode := r.Intn(4)
		if mode == 3 {
			pos = make([]int32, 4*((nPos+3)/4))
		}
		for i := range pos {
			switch mode {
			case 1:
				pos[i] = int32(seed&0xff) % int32(nRecs)
			case 2:
				pos[i] = int32(nRecs - 1 - i%nRecs)
			default:
				pos[i] = int32(r.Intn(nRecs))
			}
		}
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

		// Born: the gather list against the points.
		s := &System{atomRecs: recs}
		for _, r4 := range []bool{false, true} {
			sc := &bornScratch{pos: slices.Clone(pos)}
			got := s.bornLanes(sc, pts, items, r4)
			for i, p := range pos {
				same(fmt.Sprintf("born r4=%v lane %d (atom %d)", r4, i, p), got[i], bornAtomSum(recs[p].pos, pts, items, r4))
			}
		}

		// Energy: the gather list's rows against vr, each nearSum's bits
		// for its atom alone; then the rows cut into blocks of up to 64
		// atoms, each summed as nearSum sums a block of those records.
		// Where two NaN rows meet in a block sum, the payload that wins
		// depends on the operand order the compiler picks for a Go +=,
		// which the fuzzing build's instrumentation changes, so block sums
		// need only agree on being NaN.
		ns := &nearScratch{pos: slices.Clone(pos)}
		rows := ns.nearRows(recs, radii, vr, vR)
		for i, p := range pos {
			want, _ := nearSum(recs[p:p+1], radii[p:p+1], vr, vR, false, false)
			same(fmt.Sprintf("energy row %d (atom %d)", i, p), rows[i], want)
		}
		for lo := 0; lo < len(pos); {
			hi := min(len(pos), lo+1+r.Intn(64))
			ur, uR := make([]atomRec, 0, hi-lo), make([]float64, 0, hi-lo)
			got := 0.0
			for i, p := range pos[lo:hi] {
				ur, uR = append(ur, recs[p]), append(uR, radii[p])
				got += rows[lo+i]
			}
			want, _ := nearSum(ur, uR, vr, vR, false, false)
			if !math.IsNaN(got) || !math.IsNaN(want) {
				same(fmt.Sprintf("energy block [%d,%d)", lo, hi), got, want)
			}
			lo = hi
		}

		// Far table: the radii as class sums at one distance.
		r2 := val(50) * val(50)
		got, want := make([]farKernel, nRecs), make([]farKernel, nRecs)
		withKernels(t, true)
		farTable(radii, r2, got)
		vecKernels = false
		farTable(radii, r2, want)
		for k := range got {
			same(fmt.Sprintf("far e[%d]", k), got[k].e, want[k].e)
			same(fmt.Sprintf("far invF[%d]", k), got[k].invF, want[k].invF)
		}
	})
}

// BenchmarkNearKernels reports ns per pair of each kernel on the vector
// and the Go path at leaves of 8 and 32 atoms: the Born loop of a leaf's
// atoms over a 32-point quadrature leaf, the energy near field of four
// source leaves against one target leaf through flushNear's row sums, and
// the far kernel table entry.
func BenchmarkNearKernels(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const nAtoms, nQ = 128, 32
	recs, radii := make([]atomRec, nAtoms), make([]float64, nAtoms)
	for i := range recs {
		recs[i] = atomRec{geom.V(r.Float64()*20, r.Float64()*20, r.Float64()*20), r.Float64() - 0.5}
		radii[i] = 1.5 + 2*r.Float64()
	}
	pts, items := make([]surface.QPoint, nQ), make([]int32, nQ)
	for i := range pts {
		pts[i] = surface.QPoint{Pos: geom.V(r.Float64()*20, r.Float64()*20, r.Float64()*20),
			Normal: geom.V(r.Float64(), r.Float64(), r.Float64()).Unit(), Weight: r.Float64()}
		items[i] = int32(i)
	}
	s := &System{atomRecs: recs}
	for _, path := range []struct {
		name string
		on   bool
	}{{"avx2", true}, {"go", false}} {
		if path.on && !vecHost {
			continue
		}
		for _, leaf := range []int{8, 32} {
			src := 4 * leaf
			vr, vR := recs[nAtoms-leaf:], radii[nAtoms-leaf:]
			b.Run(fmt.Sprintf("born/leaf%d/%s", leaf, path.name), func(b *testing.B) {
				sc := &bornScratch{}
				for i := 0; i < b.N; i++ {
					if path.on {
						sc.pos = sc.pos[:0]
						for p := 0; p < leaf; p++ {
							sc.pos = append(sc.pos, int32(p))
						}
						s.bornLanes(sc, pts, items, false)
						continue
					}
					for p := 0; p < leaf; p++ {
						sinkF += bornAtomSum(recs[p].pos, pts, items, false)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaf*nQ), "ns/pair")
			})
			b.Run(fmt.Sprintf("energy/leaf%d/%s", leaf, path.name), func(b *testing.B) {
				ns := &nearScratch{}
				for i := 0; i < b.N; i++ {
					if !path.on {
						for u := 0; u < src; u += leaf {
							sum, _ := nearSum(recs[u:u+leaf], radii[u:u+leaf], vr, vR, false, false)
							sinkF += sum
						}
						continue
					}
					ns.pos = ns.pos[:0]
					for p := 0; p < src; p++ {
						ns.pos = append(ns.pos, int32(p))
					}
					for _, row := range ns.nearRows(recs, radii, vr, vR) {
						sinkF += row
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*src*leaf), "ns/pair")
			})
		}
		b.Run("far-table/"+path.name, func(b *testing.B) {
			withKernels(b, path.on)
			g := make([]farKernel, nAtoms)
			for i := 0; i < b.N; i++ {
				farTable(radii, 400, g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nAtoms), "ns/entry")
		})
	}
}

var sinkF float64
