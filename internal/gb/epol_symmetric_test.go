package gb

import (
	"fmt"
	"math"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
)

// reachSets walks the energy traversal of every target leaf exactly as
// the pass descends (far internal nodes stop it, leaves are exact) and
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

// scaledFactor is the order-p opening factor of ε with Fig. 3's threshold
// 1 + 2/ε multiplied by scale: it reaches factors below 1 (scale 0.25 at
// ε = 0.9) and close to 1 (ε = 8 at p = 2).
func scaledFactor(eps, scale float64, ord int) float64 {
	f := epolFarFactor(eps) * scale
	if ord == OrderDipole {
		return f
	}
	return math.Pow(f, 2/float64(ord+1))
}

// TestEpolReachesMatchesTraversal: the mirror predicate agrees with the
// traversal's own reach sets on every ordered leaf pair, including
// opening factors below 1 and close to 1 (scaledFactor), where walking
// only part of the ancestor chain would not be safe.
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
						factor := scaledFactor(eps, scale, ord)
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

// TestSymmetricNearFieldSpans: the owner of a mutually near leaf block
// depends on the pair alone (ownsNear), so over 1, 2, 3 and 5 contiguous
// spans of the leaves (one per simulated share), at opening scales 0.25
// and 1 (scaledFactor) and orders 0/1/2:
//   - every mutually near leaf pair is evaluated ×2 by exactly one of its
//     two targets and skipped by the other;
//   - the spans' sums add up to the ordered-pair dense oracle's total to
//     rounding, with the oracle's op count per leaf; one span's sum alone
//     need not be its targets' ordered-pair sum;
//   - the exact leaf blocks the spans evaluate add up to the one-span
//     count: a block across two spans is evaluated once, not on both
//     sides.
func TestSymmetricNearFieldSpans(t *testing.T) {
	base := buildSys(t, 900, DefaultParams())
	for _, scale := range []float64{0.25, 1} {
		var worlds []*nearWorld
		for _, ord := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
			s := withMode(t, base, ord, ExactMath)
			radii, _ := s.BornRadii()
			agg := s.buildEpolAggregates(radii)
			w := &nearWorld{s: s, oracleOps: map[int32]int64{}}
			w.p = epolPass{u: s, uAgg: agg, v: s, vAgg: agg, factor: scaledFactor(s.Params.Accuracy.EpsEpol, scale, ord), sc: newEpolScratch(agg.M)}
			w.reach = reachSets(s, w.p.factor)
			da := buildDenseAggregates(s, radii, agg)
			mutual := 0
			for _, v := range s.aLeaves {
				ws, wops := denseApproxEpol(s, s.TA.Root(), v, radii, da, ord, w.p.factor)
				w.oracle += ws
				w.oracleOps[v] = wops
				w.blocks += w.evaluated(v)
				for u := range w.reach[v] {
					if u >= v || !w.reach[u][v] {
						continue
					}
					mutual++
					ur, uR := s.atomsOf(&s.TA.Nodes[u], agg)
					vr, vR := s.atomsOf(&s.TA.Nodes[v], agg)
					uv, _ := nearSum(ur, uR, vr, vR, false, false)
					vu, _ := nearSum(vr, vR, ur, uR, false, false)
					atV, atU := w.leafCall(u, v), w.leafCall(v, u)
					if !(atV == 2*uv && atU == 0) && !(atU == 2*vu && atV == 0) {
						t.Fatalf("p=%d scale=%v: mutually near pair (%d, %d) summed %v at target %d and %v at target %d, want 2×%v at one and 0 at the other",
							ord, scale, u, v, atV, v, atU, u, uv)
					}
				}
			}
			if mutual == 0 {
				t.Fatalf("p=%d scale=%v: no mutually near leaf pair", ord, scale)
			}
			worlds = append(worlds, w)
		}
		for _, parts := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("scale%v/parts%d", scale, parts), func(t *testing.T) {
				for _, w := range worlds {
					s := w.s
					sum, blocks := 0.0, 0
					for k := range parts {
						lo, hi := segment(len(s.aLeaves), parts, k)
						span := 0.0
						for _, v := range s.aLeaves[lo:hi] {
							gs, gops := w.p.leaf(v)
							if gops != w.oracleOps[v] {
								t.Fatalf("p=%d: leaf %d has %d ops, ordered-pair oracle %d", s.order(), v, gops, w.oracleOps[v])
							}
							span += gs
							blocks += w.evaluated(v)
						}
						sum += span
					}
					if rel := relDiff(sum, w.oracle); rel > 1e-13 {
						t.Errorf("p=%d: spans sum to %v, ordered-pair oracle %v (rel %.3g)", s.order(), sum, w.oracle, rel)
					}
					if blocks != w.blocks {
						t.Errorf("p=%d: spans evaluate %d near blocks, the whole tree %d", s.order(), blocks, w.blocks)
					}
				}
			})
		}
	}
}

// TestCrossPassMatchesOwnPass pins the pass's two modes to each other:
// the cross pass run from a second view of a system (a distinct pointer
// over the same trees) onto the system itself walks the same node pairs
// as the own pass, so its sum matches to rounding with equal ops. Only
// Exact math: the cross pass sends the i = j term through invFGBApprox
// rather than q²/R, which differs by design in Approx math.
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
				view := *s
				sc := newEpolScratch(agg.M)
				ownPass := epolPass{u: s, uAgg: agg, v: s, vAgg: agg, factor: s.epolFactor(), sc: sc}
				crossPass := ownPass
				crossPass.u = &view
				own, cross := 0.0, 0.0
				ownOps, crossOps := int64(0), int64(0)
				for _, v := range s.aLeaves {
					vs, vops := ownPass.leaf(v)
					cs, cops := crossPass.leaf(v)
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

// nearWorld is one own energy pass with the ordered-pair dense oracle's
// per-leaf results.
type nearWorld struct {
	s         *System
	p         epolPass
	reach     map[int32]map[int32]bool // per target leaf, the leaves it reaches
	oracle    float64                  // the oracle's whole-tree sum
	oracleOps map[int32]int64          // the oracle's ops per target leaf
	blocks    int                      // exact leaf blocks the whole tree evaluates
}

// leafCall is target leaf v's exact block on source leaf u.
func (w *nearWorld) leafCall(u, v int32) float64 {
	sum, _ := w.p.node(u, v)
	return sum
}

// evaluated counts the exact leaf blocks target v's traversal evaluates:
// the leaves it reaches whose leaf call is not skipped. A skipped call
// returns exactly 0; an evaluated block of this test's charges never
// sums to 0.
func (w *nearWorld) evaluated(v int32) int {
	n := 0
	for u := range w.reach[v] {
		if w.leafCall(u, v) != 0 {
			n++
		}
	}
	return n
}
