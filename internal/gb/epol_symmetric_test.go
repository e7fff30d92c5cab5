package gb

import (
	"fmt"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
)

// reachSets walks the energy traversal of every target leaf exactly as
// approxEpol descends (far internal nodes stop it, leaves are exact) and
// records, per target, the leaves it reaches.
func reachSets(s *System, factor float64) map[int32]map[int32]bool {
	out := make(map[int32]map[int32]bool, len(s.aLeaves))
	for _, v := range s.aLeaves {
		vn := &s.TA.Nodes[v]
		reached := map[int32]bool{}
		var walk func(u int32)
		walk = func(u int32) {
			un := &s.TA.Nodes[u]
			if u != v && !un.Leaf && epolFar(un.Center.Dist(vn.Center), un.Radius, vn.Radius, factor) {
				return
			}
			if un.Leaf {
				reached[u] = true
				return
			}
			for _, c := range un.Children {
				if c != octree.NoChild {
					walk(c)
				}
			}
		}
		walk(s.TA.Root())
		out[v] = reached
	}
	return out
}

// TestEpolReachesMatchesTraversal: the mirror predicate agrees with the
// traversal's own reach sets on every ordered leaf pair, including
// opening factors below 1 (OpeningScale 0.25 at ε = 0.9) and close to 1
// (ε = 8 at p = 2), where walking only part of the ancestor chain would
// not be safe.
func TestEpolReachesMatchesTraversal(t *testing.T) {
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			break
		}
		t.Run(e.Name, func(t *testing.T) {
			base := newTestSystem(t, molecule.ZDockMolecule(e), surface.DefaultConfig(), DefaultParams())
			mutual, oneWay := 0, 0
			for _, ord := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
				for _, scale := range []float64{0.25, 1, 2} {
					for _, eps := range []float64{0.9, 8} {
						acc := DefaultAccuracy()
						acc.Order, acc.EpsEpol = ord, eps
						s, err := base.WithAccuracy(acc)
						if err != nil {
							t.Fatal(err)
						}
						s.Params.OpeningScale = scale
						factor := s.epolFactor()
						reach := reachSets(s, factor)
						for _, tl := range s.aLeaves {
							for _, l := range s.aLeaves {
								got, want := s.epolReaches(tl, l, factor), reach[tl][l]
								if got != want {
									t.Fatalf("p=%d scale=%v eps=%v (factor %.3f): epolReaches(%d, %d) = %v, traversal %v",
										ord, scale, eps, factor, tl, l, got, want)
								}
								switch {
								case got && reach[l][tl]:
									mutual++
								case got:
									oneWay++
								}
							}
						}
					}
				}
			}
			if mutual == 0 || oneWay == 0 {
				t.Fatalf("%d mutually near and %d one-way near leaf pairs: the sweep must cover both", mutual, oneWay)
			}
		})
	}
}

// TestSymmetricNearFieldSpans: over a split of the leaves into contiguous
// spans (one per simulated share), each span's symmetric sum matches the
// ordered-pair reference over the same targets to rounding, with the same
// op count per leaf. So ownership never crosses a span: a share's
// partial sum is Fig. 3's sum over its own targets.
func TestSymmetricNearFieldSpans(t *testing.T) {
	base := buildSys(t, 900, DefaultParams())
	radii, _ := base.BornRadii()
	for _, scale := range []float64{0.25, 1} {
		s := *base
		s.Params.OpeningScale = scale
		agg := s.buildEpolAggregates(radii)
		da := buildDenseAggregates(&s, radii, agg)
		sc := newFarScratch(agg.M)
		factor := s.epolFactor()
		for _, parts := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("scale%v/parts%d", scale, parts), func(t *testing.T) {
				for k := range parts {
					lo, hi := segment(len(s.aLeaves), parts, k)
					own := leafSpan{s.aLeaves[lo], s.aLeaves[hi-1]}
					gsum, wsum := 0.0, 0.0
					for _, v := range s.aLeaves[lo:hi] {
						gs, gops := s.approxEpol(s.TA.Root(), v, agg, sc, factor, own, nil)
						ws, wops := denseApproxEpol(&s, s.TA.Root(), v, radii, da, agg.order)
						if gops != wops {
							t.Fatalf("share %d leaf %d: %d ops, ordered-pair reference %d", k, v, gops, wops)
						}
						gsum += gs
						wsum += ws
					}
					if rel := relDiff(gsum, wsum); rel > 1e-13 {
						t.Errorf("share %d: symmetric sum %v, ordered-pair %v (rel %.3g)", k, gsum, wsum, rel)
					}
				}
			})
		}
	}
}

// TestCrossPassMatchesOwnPass pins the two energy kernels to each other:
// the two-tree pass run from a second view of a system (a distinct
// pointer over the same trees) onto the system itself walks the same
// node pairs as the own pass, so its sum matches to rounding with equal
// ops. Only Exact math: the cross pass sends the i = j term through
// invFGBApprox rather than q²/R, which differs by design in Approx math.
func TestCrossPassMatchesOwnPass(t *testing.T) {
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			break
		}
		t.Run(e.Name, func(t *testing.T) {
			base := newTestSystem(t, molecule.ZDockMolecule(e), surface.DefaultConfig(), DefaultParams())
			for _, ord := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
				s := withMode(t, base, ord, ExactMath)
				radii, _ := s.BornRadii()
				agg := s.buildEpolAggregates(radii)
				factor := s.epolFactor()
				view := *s
				sc := newFarScratch(agg.M)
				ep := &epolCrossPass{u: &view, uAgg: agg, v: s, vAgg: agg, factor: factor, sc: sc}
				own, cross := 0.0, 0.0
				ownOps, crossOps := int64(0), int64(0)
				for _, v := range s.aLeaves {
					vs, vops := s.approxEpol(s.TA.Root(), v, agg, sc, factor, wholeTree(s.TA), nil)
					cs, cops := ep.run(view.TA.Root(), v)
					own, ownOps = own+vs, ownOps+vops
					cross, crossOps = cross+cs, crossOps+cops
				}
				if rel := relDiff(cross, own); rel > 1e-13 {
					t.Errorf("p=%d: cross pass %v, own pass %v (rel %.3g)", ord, cross, own, rel)
				}
				if crossOps != ownOps {
					t.Errorf("p=%d: cross pass %d ops, own pass %d", ord, crossOps, ownOps)
				}
			}
		})
	}
}
