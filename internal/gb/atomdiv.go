package gb

import (
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// This file implements the ATOM-BASED-WORK-DIVISION alternative of §IV:
// atoms (not leaf nodes) are divided among processes, each process
// traverses both octrees but computes only for the atoms in its range.
// The paper observes it is slightly slower than node-based division and —
// because division boundaries split tree nodes — its approximation error
// varies with the process count, unlike the node-based scheme.

// approxIntegralsAtomRange is APPROX-INTEGRALS restricted to atoms whose
// octree item position lies in [lo, hi): far-field sums may only be
// collected at T_A nodes fully owned by the range (collecting at a
// partially-owned node would double-count across ranks), so boundary
// nodes are descended instead — the source of the P-dependent error.
func (s *System) approxIntegralsAtomRange(a, q int32, lo, hi int32, acc *bornAccum) int64 {
	an := &s.TA.Nodes[a]
	if an.End <= lo || an.Start >= hi {
		return 1
	}
	if an.Start >= lo && an.End <= hi {
		return s.ApproxIntegrals(a, q, acc)
	}
	// Partially owned: cannot approximate here.
	if an.Leaf {
		ops := s.exactIntegrals(max(an.Start, lo), min(an.End, hi), q, acc)
		s.flushIntegrals(q, acc)
		return ops
	}
	ops := int64(1)
	for _, c := range an.Children {
		if c != octree.NoChild {
			ops += s.approxIntegralsAtomRange(c, q, lo, hi, acc)
		}
	}
	return ops
}

// approxEpolAtom computes the interaction of the atom at T_A item
// position pos with the subtree under node u, Barnes-Hut style (the atom
// is a point, so the far criterion reduces to d > r_U·factor): the
// atom-based energy traversal. Returns the raw Σ_j q_i q_j/f sum and the
// evaluation count.
func (s *System) approxEpolAtom(pos int32, u int32, agg *epolAggregates,
	factor float64, tally *pairTally) (float64, int64) {
	un := &s.TA.Nodes[u]
	pi, qi, ri := s.atomRecs[pos].pos, s.atomRecs[pos].q, agg.radii[pos]
	d := un.Center.Dist(pi)
	approx := s.Params.Math == ApproxMath
	if !un.Leaf && epolFar(d, un.Radius, 0, factor) {
		return farClassSumAtom(agg, u, qi, ri, d, un.Center.Sub(pi), approx, tally)
	}
	if un.Leaf {
		vr, vR := s.atomsOf(un, agg)
		vR = vR[:len(vr)]
		sum := 0.0
		for b := range vr {
			if un.Start+int32(b) == pos {
				sum += qi * qi / ri
				continue
			}
			r2 := pi.Dist2(vr[b].pos)
			if qq, rr := qi*vr[b].q, ri*vR[b]; approx {
				sum += qq * invFGBApprox(r2, rr)
			} else {
				sum += qq * (1 / fGB(r2, rr))
			}
		}
		ops := int64(len(vr))
		tally.addNear(ops)
		return sum, ops
	}
	sum := 0.0
	ops := int64(1)
	for _, c := range un.Children {
		if c != octree.NoChild {
			cs, cops := s.approxEpolAtom(pos, c, agg, factor, tally)
			sum += cs
			ops += cops
		}
	}
	return sum, ops
}

// farClassSumAtom is farClassSum for a point target: the classes of U
// against one atom's exact radius ri and charge qi at distance d, dvec =
// c_U − p_a (δ = m_a, the source offset; the atom has no moments).
func farClassSumAtom(agg *epolAggregates, u int32, qi, ri, d float64, dvec geom.Vec3,
	approx bool, tally *pairTally) (float64, int64) {
	r2 := d * d
	dhat := dvec.Scale(1 / d)
	ord := agg.order
	sum := 0.0
	ops := int64(0)
	for a := agg.off[u]; a < agg.off[u+1]; a++ {
		qu := agg.q[a]
		var du float64
		if ord >= OrderDipole {
			du = dhat.Dot(agg.dip[a])
		}
		if qu == 0 && du == 0 &&
			(ord != OrderQuadrupole || agg.quad[a] == (geom.Mat3{})) {
			continue
		}
		// Class product representative: exact atom radius × class-mid
		// radius; powR[k] = Rmin²(1+εb)^(k+1), so the class-j mid
		// radius Rmin(1+εb)^(j+1/2) is sqrt(powR[2j]).
		t := ri * math.Sqrt(agg.powR[2*int(agg.cls[a])])
		var e, invF float64
		if approx {
			e = fastExp(-r2 / (4 * t))
			invF = fastInvSqrt(r2 + t*e)
		} else {
			e = math.Exp(-r2 / (4 * t))
			invF = 1 / math.Sqrt(r2+t*e)
		}
		if ord == OrderMonopole {
			sum += qi * qu * invF
			ops++
			continue
		}
		gp := -d * (1 - e/4) * invF * invF * invF
		sum += qi*qu*invF + qi*gp*du
		if ord == OrderQuadrupole {
			up := 2 * d * (1 - e/4)
			upp := 2*(1-e/4) + (r2/(4*t))*e
			invF3 := invF * invF * invF
			gpp := 0.75*up*up*invF3*invF*invF - 0.5*upp*invF3
			ku := &agg.quad[a]
			a2 := dhat.Dot(ku.MulVec(dhat))
			b2 := ku[0] + ku[4] + ku[8]
			sum += qi * (0.5*gpp*a2 + (0.5*gp/d)*(b2-a2))
		}
		ops++
	}
	if ops == 0 {
		ops = 1
	}
	tally.addFar(ops)
	return sum, ops
}
