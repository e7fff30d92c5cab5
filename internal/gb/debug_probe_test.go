package gb

import (
	"math"
	"sort"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// epolAtScale is System.Epol with Fig. 3's far threshold multiplied by
// scale (scaledFactor), for the opening-criterion probes.
func epolAtScale(s *System, radii []float64, scale float64) (float64, int64) {
	agg := s.buildEpolAggregates(radii)
	p := epolPass{u: s, uAgg: agg, v: s, vAgg: agg, sc: newEpolScratch(agg.M),
		factor: scaledFactor(s.Params.Accuracy.EpsEpol, scale, s.order())}
	sum, ops := 0.0, int64(0)
	for _, v := range s.aLeaves {
		vs, vops := p.leaf(v)
		sum += vs
		ops += vops
	}
	return -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum, ops
}

// TestProbeEpolError is a diagnostic scaffold (kept as a regression probe):
// it reports where the octree Epol error comes from.
func TestProbeEpolError(t *testing.T) {
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
	sorted := append([]float64(nil), radii...)
	sort.Float64s(sorted)
	t.Logf("radii: min=%v p50=%v p90=%v p99=%v max=%v",
		sorted[0], sorted[len(sorted)/2], sorted[len(sorted)*9/10],
		sorted[len(sorted)*99/100], sorted[len(sorted)-1])
	agg := sys.buildEpolAggregates(radii)
	t.Logf("M=%d Rmin=%v", agg.M, agg.Rmin)
	naive, _ := sys.NaiveEpol(radii)
	for _, eps := range []float64{0.01, 0.3, 0.9} {
		p2 := params
		p2.Accuracy.EpsEpol = eps
		s2, _ := NewSystem(m, surf, p2)
		e, ops := s2.Epol(radii)
		t.Logf("eps=%v: E=%v naive=%v rel=%v ops=%d", eps, e, naive,
			math.Abs(e-naive)/math.Abs(naive), ops)
	}
}

// TestProbeEpolErrorDecomposition separates binning error from clustering
// error at the working ε.
func TestProbeEpolErrorDecomposition(t *testing.T) {
	m := molecule.Globule("g", 600, 41)
	surf, _ := surface.Build(m, surface.DefaultConfig())
	params := DefaultParams()
	sys, _ := NewSystem(m, surf, params)
	radii, _ := sys.NaiveBornRadiiR6()
	naive, _ := sys.NaiveEpol(radii)
	for _, scale := range []float64{1, 2, 3} {
		for _, binEps := range []float64{0.9, 0.05} {
			p2 := params
			p2.Accuracy.EpsEpol = 0.9
			p2.Accuracy.BinWidth = binEps
			s2, _ := NewSystem(m, surf, p2)
			e, ops := epolAtScale(s2, radii, scale)
			t.Logf("scale=%v binEps=%v: rel=%+.4f%% ops=%d",
				scale, binEps, 100*(e-naive)/math.Abs(naive), ops)
		}
	}
}

// TestProbeEpolLarge checks error/work on a molecule large enough for the
// far field to dominate.
func TestProbeEpolLarge(t *testing.T) {
	m := molecule.Globule("g", 2500, 77)
	surf, _ := surface.Build(m, surface.DefaultConfig())
	params := DefaultParams()
	sys, _ := NewSystem(m, surf, params)
	radii, _ := sys.NaiveBornRadiiR6()
	naive, nops := sys.NaiveEpol(radii)
	t.Logf("naive E=%v halfops=%d", naive, nops)
	for _, scale := range []float64{1, 2} {
		for _, binEps := range []float64{0.9, 0.2, 0.05} {
			p2 := params
			p2.Accuracy.EpsEpol = 0.9
			p2.Accuracy.BinWidth = binEps
			s2, _ := NewSystem(m, surf, p2)
			e, ops := epolAtScale(s2, radii, scale)
			t.Logf("scale=%v binEps=%v: rel=%+.4f%% ops=%d", scale, binEps, 100*(e-naive)/math.Abs(naive), ops)
		}
	}
}

// TestEpolPairCoverage verifies the U-descent covers every ordered atom
// pair exactly once: with a counting kernel the total must be M².
func TestEpolPairCoverage(t *testing.T) {
	m := molecule.Globule("g", 1500, 79)
	surf, _ := surface.Build(m, surface.DefaultConfig())
	sys, _ := NewSystem(m, surf, DefaultParams())
	factor := epolFarFactor(0.9)
	var count func(u, v int32) int64
	count = func(u, v int32) int64 {
		un := &sys.TA.Nodes[u]
		vn := &sys.TA.Nodes[v]
		d := un.Center.Dist(vn.Center)
		if u != v && epolFar(d, un.Radius, vn.Radius, factor) {
			return int64(un.Count()) * int64(vn.Count())
		}
		if un.Leaf {
			return int64(un.Count()) * int64(vn.Count())
		}
		tot := int64(0)
		for _, c := range un.Children {
			if c != -1 {
				tot += count(c, v)
			}
		}
		return tot
	}
	total := int64(0)
	for _, v := range sys.aLeaves {
		total += count(sys.TA.Root(), v)
	}
	want := int64(m.NumAtoms()) * int64(m.NumAtoms())
	if total != want {
		t.Errorf("covered %d ordered pairs, want %d", total, want)
	}
}

// TestProbeFarPairAccuracy compares each far-pair class-sum against the
// exact double loop, to localize the far-field error.
func TestProbeFarPairAccuracy(t *testing.T) {
	m := molecule.Globule("g", 1500, 79)
	surf, _ := surface.Build(m, surface.DefaultConfig())
	p := DefaultParams()
	p.Accuracy.BinWidth = 0.05
	sys, _ := NewSystem(m, surf, p)
	radii, _ := sys.NaiveBornRadiiR6()
	agg := sys.buildEpolAggregates(radii)
	factor := epolFarFactor(p.Accuracy.EpsEpol)
	kernel := pairEnergyKernel(ExactMath)
	var farApprox, farExact, totDiff float64
	nfar := 0
	var walk func(u, v int32)
	walk = func(u, v int32) {
		un := &sys.TA.Nodes[u]
		vn := &sys.TA.Nodes[v]
		d := un.Center.Dist(vn.Center)
		if u != v && epolFar(d, un.Radius, vn.Radius, factor) {
			r2 := d * d
			apx := 0.0
			for a := agg.off[u]; a < agg.off[u+1]; a++ {
				if agg.q[a] == 0 {
					continue
				}
				for b := agg.off[v]; b < agg.off[v+1]; b++ {
					if agg.q[b] == 0 {
						continue
					}
					apx += kernel(agg.q[a]*agg.q[b], r2, agg.powR[int(agg.cls[a])+int(agg.cls[b])])
				}
			}
			ext := 0.0
			for _, ui := range sys.TA.ItemsOf(u) {
				for _, vi := range sys.TA.ItemsOf(v) {
					rr := sys.atomPos[ui].Dist2(sys.atomPos[vi])
					ext += kernel(sys.Mol.Atoms[ui].Charge*sys.Mol.Atoms[vi].Charge, rr, radii[ui]*radii[vi])
				}
			}
			farApprox += apx
			farExact += ext
			totDiff += math.Abs(apx - ext)
			nfar++
			return
		}
		if un.Leaf {
			return
		}
		for _, c := range un.Children {
			if c != -1 {
				walk(c, v)
			}
		}
	}
	for _, v := range sys.aLeaves {
		walk(sys.TA.Root(), v)
	}
	naive, _ := sys.NaiveEpol(radii)
	rawNaive := naive / (-0.5 * Tau(80) * CoulombKcal)
	t.Logf("nfar=%d farApprox=%.6f farExact=%.6f sumAbsDiff=%.6f rawNaiveTotal=%.6f",
		nfar, farApprox, farExact, totDiff, rawNaive)
}

// TestProbeEpolTune8k tunes default scale/binEps at a larger size.
func TestProbeEpolTune8k(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	m := molecule.Globule("g", 8000, 99)
	surf, _ := surface.Build(m, surface.DefaultConfig())
	params := DefaultParams()
	sys, _ := NewSystem(m, surf, params)
	radii, _ := sys.NaiveBornRadiiR6()
	naive, _ := sys.NaiveEpol(radii)
	ordered := int64(m.NumAtoms()) * int64(m.NumAtoms())
	t.Logf("naive E=%v orderedOps=%d", naive, ordered)
	for _, scale := range []float64{1, 1.5} {
		for _, binEps := range []float64{0.3, 0.2, 0.1} {
			p2 := params
			p2.Accuracy.EpsEpol = 0.9
			p2.Accuracy.BinWidth = binEps
			s2, _ := NewSystem(m, surf, p2)
			e, ops := epolAtScale(s2, radii, scale)
			t.Logf("scale=%v binEps=%v: rel=%+.4f%% ops=%d (%.1fx)", scale, binEps,
				100*(e-naive)/math.Abs(naive), ops, float64(ordered)/float64(ops))
		}
	}
}
