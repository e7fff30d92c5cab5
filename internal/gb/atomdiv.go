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
		qn := &s.TQ.Nodes[q]
		return s.approxIntegrals(a, q, qn, s.nodeNormal[q], s.bornBeta(), s.order(), acc)
	}
	// Partially owned: cannot approximate here.
	if an.Leaf {
		r4Form := s.Params.Integral == IntegralR4
		ops := int64(0)
		for pos := max(an.Start, lo); pos < min(an.End, hi); pos++ {
			ai := s.TA.Items[pos]
			pa := s.atomPos[ai]
			sum := 0.0
			for _, qi := range s.TQ.ItemsOf(q) {
				qp := &s.Surf.Points[qi]
				dv := qp.Pos.Sub(pa)
				r2 := dv.Norm2()
				rp := r2 * r2
				if !r4Form {
					rp *= r2
				}
				sum += qp.Weight * dv.Dot(qp.Normal) / rp
				ops++
			}
			acc.atomS[ai] += sum
		}
		acc.near += ops
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

// approxEpolAtom computes one atom's interaction with the subtree under
// node u, Barnes-Hut style (the atom is a point, so the far criterion
// reduces to d > r_U·factor): the atom-based energy traversal. Returns the
// raw Σ_j q_i q_j/f sum and the evaluation count.
func (s *System) approxEpolAtom(ai int32, u int32, radii []float64, agg *epolAggregates,
	factor float64, tally *pairTally) (float64, int64) {
	un := &s.TA.Nodes[u]
	pi := s.atomPos[ai]
	qi := s.Mol.Atoms[ai].Charge
	ri := radii[ai]
	d := un.Center.Dist(pi)
	approx := s.Params.Math == ApproxMath
	if !un.Leaf && epolFar(d, un.Radius, 0, factor) {
		return farClassSumAtom(agg, u, qi, ri, d, un.Center.Sub(pi), approx, tally)
	}
	if un.Leaf {
		sum := 0.0
		ops := int64(0)
		for _, vi := range s.TA.ItemsOf(u) {
			if vi == ai {
				sum += qi * qi / ri
				ops++
				continue
			}
			r2 := pi.Dist2(s.atomPos[vi])
			if qq, rr := qi*s.Mol.Atoms[vi].Charge, ri*radii[vi]; approx {
				sum += qq * invFGBApprox(r2, rr)
			} else {
				sum += qq * (1 / fGB(r2, rr))
			}
			ops++
		}
		tally.addNear(ops)
		return sum, ops
	}
	sum := 0.0
	ops := int64(1)
	for _, c := range un.Children {
		if c != octree.NoChild {
			cs, cops := s.approxEpolAtom(ai, c, radii, agg, factor, tally)
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
