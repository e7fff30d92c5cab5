package gb

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

func TestRunMPIDynamicMatchesSerial(t *testing.T) {
	s := buildSys(t, 600, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for _, P := range []int{2, 4, 7} {
		r, err := s.RunMPIDynamic(P)
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if math.Abs(r.Epol-serial.Epol)/math.Abs(serial.Epol) > 1e-12 {
			t.Errorf("P=%d: Epol %v vs serial %v", P, r.Epol, serial.Epol)
		}
		for i := range r.Born {
			if relDiff(r.Born[i], serial.Born[i]) > 1e-12 {
				t.Fatalf("P=%d: Born[%d] differs", P, i)
			}
		}
		// The coordinator does no leaf work.
		if r.PerCoreOps[0] != 0 {
			t.Errorf("P=%d: coordinator did %d ops", P, r.PerCoreOps[0])
		}
		// All compute ranks worked.
		for rank := 1; rank < P; rank++ {
			if r.PerCoreOps[rank] == 0 {
				t.Errorf("P=%d: rank %d idle", P, rank)
			}
		}
		// The dynamic protocol generates point-to-point traffic.
		if r.Traffic.P2PMessages == 0 {
			t.Errorf("P=%d: no chunk-protocol traffic", P)
		}
	}
}

func TestRunMPIDynamicValidation(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	if _, err := s.RunMPIDynamic(1); err == nil {
		t.Error("P=1 accepted (needs a coordinator + a worker)")
	}
}

// On a workload with skewed leaf costs — a dense globule plus a sparse
// distant helix, so some octree leaves interact with far more near
// neighbors than others — dynamic balancing should even out per-rank
// work better than static segments. Which rank a real run grants each
// chunk to follows goroutine scheduling, so the claim is checked on a
// replay of the grant rule over the system's real per-leaf op costs, in
// which each request comes from the worker that finishes first; the
// real run must do the same total work and produce the same energy.
func TestRunMPIDynamicBalancesSkew(t *testing.T) {
	dense := molecule.Exactly(molecule.Globule("dense", 2200, 5), 2200, 5)
	sparse := molecule.Helix("sparse", 800, 6).ApplyTransform(
		geom.Translate(geom.V(60, 0, 0)))
	mol := molecule.Merge("skew", dense, sparse)
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(mol, surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const computeRanks = 5
	static, err := sys.Run(RunSpec{Processes: computeRanks})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := sys.RunMPIDynamic(computeRanks + 1) // + coordinator
	if err != nil {
		t.Fatal(err)
	}

	// Per-item costs of the two dynamically scheduled phases, and the
	// static push segments between them.
	acc := sys.newBornAccum()
	bornCost := make([]int64, len(sys.qLeaves))
	for i, q := range sys.qLeaves {
		bornCost[i] = sys.ApproxIntegrals(sys.TA.Root(), q, acc)
	}
	radii := make([]float64, sys.NumAtoms())
	replay := make([]int64, computeRanks+1)
	for w := 1; w <= computeRanks; w++ {
		lo, hi := segment(sys.NumAtoms(), computeRanks, w-1)
		replay[w] += sys.PushIntegralsToAtoms(acc, lo, hi, radii)
	}
	agg := sys.buildEpolAggregates(radii)
	pass := epolPass{u: sys, uAgg: agg, v: sys, vAgg: agg, factor: sys.epolFactor(), sc: newEpolScratch(agg.M)}
	epolCost := make([]int64, len(sys.aLeaves))
	for i, v := range sys.aLeaves {
		_, epolCost[i] = pass.leaf(v)
	}
	for _, cost := range [][]int64{bornCost, epolCost} {
		busy := make([]int64, computeRanks+1) // per-phase finish times
		for next := 0; next < len(cost); {
			w := 1
			for x := 2; x <= computeRanks; x++ {
				if busy[x] < busy[w] {
					w = x
				}
			}
			lo, hi := gssGrant(next, len(cost), computeRanks)
			chunk := sumOps(cost[lo:hi])
			busy[w] += chunk
			replay[w] += chunk
			next = hi
		}
	}
	if got, want := dynamic.TotalOps(), sumOps(replay); got != want {
		t.Fatalf("real dynamic run did %d ops, replayed costs sum to %d", got, want)
	}
	si := imbalanceOf(static.PerCoreOps)
	di := imbalanceOf(replay)
	t.Logf("imbalance: static %.3f, replayed dynamic %.3f", si, di)
	if di >= si {
		t.Errorf("dynamic imbalance %.3f not below static %.3f", di, si)
	}
	if math.Abs(dynamic.Epol-static.Epol)/math.Abs(static.Epol) > 1e-12 {
		t.Errorf("energies differ: %v vs %v", dynamic.Epol, static.Epol)
	}
}

func sumOps(ops []int64) int64 {
	sum := int64(0)
	for _, o := range ops {
		sum += o
	}
	return sum
}

// imbalanceOf is max/mean over the non-idle cores.
func imbalanceOf(ops []int64) float64 {
	maxOps, sum := int64(0), int64(0)
	n := 0
	for _, o := range ops {
		if o == 0 {
			continue // coordinator
		}
		sum += o
		n++
		if o > maxOps {
			maxOps = o
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(maxOps) * float64(n) / float64(sum)
}

// R4 integral: octree must match the naive r4 evaluation within the
// ε band, and r4 radii must differ from r6 radii (they are different
// approximations).
func TestOctreeR4MatchesNaiveR4(t *testing.T) {
	params := DefaultParams()
	params.Integral = IntegralR4
	s := buildSys(t, 500, params)
	naive, _ := s.NaiveBornRadiiR4()
	oct, _ := s.BornRadii()
	worst := 0.0
	for i := range naive {
		if rel := math.Abs(oct[i]-naive[i]) / naive[i]; rel > worst {
			worst = rel
		}
	}
	if worst > 0.05 {
		t.Errorf("worst r4 octree error %v", worst)
	}
	// r4 and r6 differ.
	r6params := DefaultParams()
	s6 := buildSys(t, 500, r6params)
	r6, _ := s6.BornRadii()
	same := true
	for i := range oct {
		if math.Abs(oct[i]-r6[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("r4 and r6 radii identical — Integral knob inert")
	}
}

// The Coulomb-field r⁴ form is exact for an isolated sphere too, but for
// buried atoms it systematically OVERestimates Born radii — the Grycuk
// deficiency that motivates the paper's r⁶ form. Verify the direction on
// a globule.
func TestR4OverestimatesBuriedRadii(t *testing.T) {
	s := buildSys(t, 800, DefaultParams())
	r6, _ := s.NaiveBornRadiiR6()
	r4, _ := s.NaiveBornRadiiR4()
	higher := 0
	for i := range r6 {
		if r4[i] >= r6[i] {
			higher++
		}
	}
	if higher < len(r6)*3/4 {
		t.Errorf("r4 radii above r6 for only %d/%d atoms", higher, len(r6))
	}
}
