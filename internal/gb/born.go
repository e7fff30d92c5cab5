package gb

import (
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// bornMom2 is the second-order surface moment of a quadrature node: the
// rank-3 tensor S[i][jk] = Σ w_q n_i m_j m_k stored as three symmetric
// matrices, one per normal component i.
type bornMom2 [3]geom.Mat3

// farBeta returns the far-field threshold factor β of the Born-radii
// criterion: nodes A, Q are far iff r_AQ > (r_A+r_Q)·(β+1)/(β−1),
// equivalently (r_AQ+s)/(r_AQ−s) ≤ β.
//
// We use β = 1+ε, which makes the threshold (β+1)/(β−1) = 1+2/ε —
// exactly the Fig. 3 energy criterion. The Fig. 2 pseudocode prints
// β = (1+ε)^(1/6) (the worst-case bound on the 6th-power distance ratio),
// but that threshold is ≈19× the ball sum at the paper's working ε = 0.9:
// it would keep the algorithm effectively exact (quadratic) at every
// ZDock benchmark size, contradicting the paper's measured millisecond
// runtimes and its own O((1/ε³)·(M/P p + log M)) cost bound, which both
// require an opening distance that scales like (1/ε)·(r_A+r_Q). Signed
// cancellation across the surface normals keeps the realized Born-radius
// error at ε = 0.9 in the paper's ≤1% band (see EXPERIMENTS.md, Fig. 10).
func farBeta(eps float64) float64 { return 1 + eps }

// farBetaOrder generalizes farBeta to the expansion order p: the far
// truncation error of an order-p expansion scales like (s/gap)^(p+1)
// with s = r_A+r_Q and gap = d−s, and the criterion d+s ≤ β·gap implies
// s/gap ≤ (β−1)/2. Holding the bound ((β−1)/2)^(p+1) at the calibrated
// p=1 value (ε/2)² gives
//
//	β_p = 1 + 2·(ε/2)^(2/(p+1))
//
// which reduces to the classic 1+ε at p=1 (that branch is taken
// literally so the default stays bitwise identical), tightens the
// criterion for the monopole field, and loosens it for the quadrupole
// field at the same target error.
func farBetaOrder(eps float64, order int) float64 {
	if order == OrderDipole {
		return farBeta(eps)
	}
	return 1 + 2*math.Pow(eps/2, 2/float64(order+1))
}

// bornFar reports whether the ball pair (separation d, radii ra, rq) is
// far enough to approximate under threshold β.
func bornFar(d, ra, rq, beta float64) bool {
	s := ra + rq
	gap := d - s
	if gap <= 0 {
		return false
	}
	return d+s <= beta*gap
}

// NaiveBornRadiiR6 evaluates Eq. 4 exactly: for every atom, the full sum
// over all surface quadrature points. ops receives the number of pair
// evaluations. O(M·m).
func (s *System) NaiveBornRadiiR6() (radii []float64, ops int64) {
	radii = make([]float64, s.NumAtoms())
	for i, a := range s.Mol.Atoms {
		sum := 0.0
		for _, q := range s.Surf.Points {
			d := q.Pos.Sub(a.Pos)
			r2 := d.Norm2()
			r6 := r2 * r2 * r2
			sum += q.Weight * d.Dot(q.Normal) / r6
			ops++
		}
		radii[i] = bornRadiusFromIntegral(sum, a.Radius)
	}
	return radii, ops
}

// NaiveBornRadiiR4 evaluates the Coulomb-field approximation (Eq. 3)
// exactly. Included as the accuracy baseline the paper contrasts the r⁶
// form against (r⁶ is more accurate for protein-like solutes).
func (s *System) NaiveBornRadiiR4() (radii []float64, ops int64) {
	radii = make([]float64, s.NumAtoms())
	for i, a := range s.Mol.Atoms {
		sum := 0.0
		for _, q := range s.Surf.Points {
			d := q.Pos.Sub(a.Pos)
			r2 := d.Norm2()
			r4 := r2 * r2
			sum += q.Weight * d.Dot(q.Normal) / r4
			ops++
		}
		radii[i] = bornRadiusFromIntegralR4(sum, a.Radius)
	}
	return radii, ops
}

// bornAccum is the per-rank (or per-thread-group) accumulator of the
// APPROX-INTEGRALS pass: partial integrals collected at T_A internal nodes
// (far-field) and at individual atoms (near-field exact pairs).
type bornAccum struct {
	nodeS []float64 // s_A per T_A node (value at the node center)
	// nodeG is the collected gradient ∇s_A about the node center: the
	// A-side first-order term. PUSH-INTEGRALS evaluates the affine field
	// s_A + g_A·(x − c_A) at each atom position, removing the error of
	// spreading one scalar across the whole node.
	nodeG []geom.Vec3
	// nodeH is the collected Hessian ∇²s_A about the node center — the
	// A-side second-order term of the quadrupole (p=2) far field, so
	// PUSH-INTEGRALS evaluates the quadratic local field
	// s_A + g_A·ξ + ½ξᵀH_Aξ at each atom. Nil below OrderQuadrupole;
	// the p≤1 paths never touch it, keeping their arithmetic (and the
	// distributed payload shape) bitwise identical to before.
	nodeH []geom.Mat3
	atomS []float64 // s_a per atom (original index)
	// near/far tally the exact-pair and approximated evaluations for the
	// obs pair counters. They ride along with the numeric fields but stay
	// rank-local: encode/decode in the distributed driver exchange
	// only the numeric payload, so each rank reports its own work split.
	near, far int64
	// scratch is the worker's near-field gather list for the vector
	// kernel (kernels.go); like the tallies it is never encoded.
	scratch *bornScratch
}

func (s *System) newBornAccum() *bornAccum {
	acc := &bornAccum{
		nodeS: make([]float64, s.TA.NumNodes()),
		nodeG: make([]geom.Vec3, s.TA.NumNodes()),
		atomS: make([]float64, s.NumAtoms()),
	}
	if s.order() == OrderQuadrupole {
		acc.nodeH = make([]geom.Mat3, s.TA.NumNodes())
	}
	return acc
}

// add merges another accumulator (used when thread-local accumulators are
// reduced within a rank).
func (b *bornAccum) add(o *bornAccum) {
	for i, v := range o.nodeS {
		b.nodeS[i] += v
	}
	for i, v := range o.nodeG {
		b.nodeG[i] = b.nodeG[i].Add(v)
	}
	if b.nodeH != nil {
		for i := range o.nodeH {
			for t := 0; t < 9; t++ {
				b.nodeH[i][t] += o.nodeH[i][t]
			}
		}
	}
	for i, v := range o.atomS {
		b.atomS[i] += v
	}
	b.near += o.near
	b.far += o.far
}

// ApproxIntegrals is Fig. 2's APPROX-INTEGRALS(A, Q): it accumulates the
// contribution of quadrature leaf Q into acc, approximating whenever the
// (A, Q) ball pair satisfies the ε far-field criterion, descending A
// otherwise, and computing exact atom×q-point sums at leaves. Returns the
// number of interaction evaluations (for the performance model).
func (s *System) ApproxIntegrals(a, q int32, acc *bornAccum) int64 {
	beta := s.bornBeta()
	qn := &s.TQ.Nodes[q]
	qNormal := s.nodeNormal[q]
	ops := s.approxIntegrals(a, q, qn, qNormal, beta, s.order(), acc)
	s.flushIntegrals(q, acc)
	return ops
}

// approxAllIntegrals runs APPROX-INTEGRALS from the root of T_A for every
// quadrature leaf, in leaf order: the whole surface's flux at the atoms.
func (s *System) approxAllIntegrals(acc *bornAccum) int64 {
	ops := int64(0)
	for _, q := range s.qLeaves {
		ops += s.ApproxIntegrals(s.TA.Root(), q, acc)
	}
	return ops
}

// bornFarNode accumulates the order-ord far-field expansion of one
// (A-node, Q-node) far pair into the A-node accumulator slots. The
// kernel is K(u; n) = (u·n)/|u|ᵖᵒʷ with u pointing from the evaluation
// point toward the quadrature point; the bivariate Taylor expansion
// about the two centers is truncated at total degree ord in the Q-side
// offset m and the A-side offset ξ:
//
//	ord 0:  Σ w K(diff; n)                          = (diff·ñ)/dᵖᵒʷ
//	ord 1:  + Q-side (tr T − pow·d̂ᵀT d̂)/dᵖᵒʷ        (Σ w ∇K·m)
//	        + A-side gradient of the monopole        (−Σ w ∇K, for ξ)
//	ord 2:  + Q-side ½ Σ w mᵀ(∇²K)m                  (via S = nodeMoment2)
//	        + the m×ξ cross term −Σ w (∇²K m)·ξ      (folded into grad)
//	        + A-side Hessian of the monopole         (½ξᵀHξ, via nodeH)
//
// The ord==1 arithmetic is expression-for-expression the pre-Accuracy
// code: the calibrated default stays bitwise identical. mom2 and nodeH
// are only dereferenced at ord 2.
func bornFarNode(ord int, diff geom.Vec3, d, rp, pow float64,
	qNormal geom.Vec3, mom *geom.Mat3, mom2 *bornMom2,
	nodeS *float64, nodeG *geom.Vec3, nodeH *geom.Mat3) {
	if ord == OrderMonopole {
		*nodeS += diff.Dot(qNormal) / rp
		return
	}
	dhat := diff.Scale(1 / d)
	trT := mom[0] + mom[4] + mom[8]
	dTd := dhat.Dot(mom.MulVec(dhat))
	*nodeS += (diff.Dot(qNormal) + trT - pow*dTd) / rp
	// ∇_x [(q̄−x)·ñ/|q̄−x|ᵖ] = −ñ/dᵖ + p (d·ñ) d̂ / dᵖ⁺¹.
	grad := qNormal.Scale(-1 / rp).Add(dhat.Scale(pow * diff.Dot(qNormal) / (rp * d)))
	if ord == OrderQuadrupole {
		inv := 1 / (rp * d) // 1/dᵖᵒʷ⁺¹
		// Q-side quadratic term ½ Σ w mᵀ(∇²K)m contracted through S:
		//   A = Σ_ab S[a][ab] d̂_b,  B = Σ_a d̂_a tr S[a],
		//   C = Σ_a d̂_a (d̂ᵀ S[a] d̂)
		//   term = [pow(pow+2)·C − pow(2A+B)] / (2 dᵖᵒʷ⁺¹)
		dh := [3]float64{dhat.X, dhat.Y, dhat.Z}
		var sA, sB, sC float64
		for i := 0; i < 3; i++ {
			si := &mom2[i]
			sA += si[3*i]*dh[0] + si[3*i+1]*dh[1] + si[3*i+2]*dh[2]
			sB += dh[i] * (si[0] + si[4] + si[8])
			sC += dh[i] * dhat.Dot(si.MulVec(dhat))
		}
		*nodeS += (pow*(pow+2)*sC - pow*(2*sA+sB)) * inv / 2
		// Cross term −Σ w (∇²K m)·ξ ≡ ∇_x of the first-order T term:
		//   [pow·trT·d̂ + pow(T+Tᵀ)d̂ − pow(pow+2)(d̂ᵀTd̂)d̂] / dᵖᵒʷ⁺¹.
		tSym := mom.MulVec(dhat).Add(mom.Transpose().MulVec(dhat))
		grad = grad.Add(dhat.Scale(pow * trT).Add(tSym.Scale(pow)).
			Add(dhat.Scale(-pow * (pow + 2) * dTd)).Scale(inv))
		// A-side Hessian of the monopole field:
		//   [−pow(ñd̂ᵀ + d̂ñᵀ + (d̂·ñ)I) + pow(pow+2)(d̂·ñ)d̂d̂ᵀ] / dᵖᵒʷ⁺¹.
		dn := dhat.Dot(qNormal)
		var h geom.Mat3
		addOuter(&h, qNormal.Scale(-pow*inv), dhat)
		addOuter(&h, dhat.Scale(-pow*inv), qNormal)
		addOuter(&h, dhat.Scale(pow*(pow+2)*dn*inv), dhat)
		diag := -pow * dn * inv
		h[0] += diag
		h[4] += diag
		h[8] += diag
		for t := 0; t < 9; t++ {
			nodeH[t] += h[t]
		}
	}
	*nodeG = nodeG.Add(grad)
}

func (s *System) approxIntegrals(a, q int32, qn *octree.Node, qNormal geom.Vec3, beta float64, ord int, acc *bornAccum) int64 {
	an := &s.TA.Nodes[a]
	d := an.Center.Dist(qn.Center)
	// The integrand power: 6 for the r⁶ form (Eq. 4), 4 for the
	// Coulomb-field r⁴ form (Eq. 3).
	pow := 6.0
	r4Form := s.Params.Integral == IntegralR4
	if r4Form {
		pow = 4
	}
	if bornFar(d, an.Radius, qn.Radius, beta) {
		// Far: Q acts as a pseudo-q-point at its centroid, expanded to
		// the order the accuracy spec asks for (see bornFarNode).
		diff := qn.Center.Sub(an.Center)
		r2 := d * d
		rp := r2 * r2 // p = 4
		if !r4Form {
			rp *= r2 // p = 6
		}
		var m2 *bornMom2
		var hslot *geom.Mat3
		if ord == OrderQuadrupole {
			m2 = &s.nodeMoment2[q]
			hslot = &acc.nodeH[a]
		}
		bornFarNode(ord, diff, d, rp, pow, qNormal, &s.nodeMoment[q], m2,
			&acc.nodeS[a], &acc.nodeG[a], hslot)
		acc.far++
		return 1
	}
	if an.Leaf {
		return s.exactIntegrals(an.Start, an.End, q, acc)
	}
	ops := int64(1)
	for _, c := range an.Children {
		if c != octree.NoChild {
			ops += s.approxIntegrals(c, q, qn, qNormal, beta, ord, acc)
		}
	}
	return ops
}

// exactIntegrals gathers the atoms at T_A item positions [lo, hi) for
// their exact surface integrals against every q-point under T_Q node q:
// the near field of APPROX-INTEGRALS. flushIntegrals sums them into acc
// once a chunk is full or the traversal of q is done. Returns the pair
// count.
func (s *System) exactIntegrals(lo, hi int32, q int32, acc *bornAccum) int64 {
	qn := &s.TQ.Nodes[q]
	ops := int64(hi-lo) * int64(qn.Count())
	acc.near += ops
	if acc.scratch == nil {
		acc.scratch = new(bornScratch)
	}
	if len(acc.scratch.pos)+int(hi-lo) > chunkAtoms {
		s.flushIntegrals(q, acc)
	}
	for p := lo; p < hi; p++ {
		acc.scratch.pos = append(acc.scratch.pos, p)
	}
	return ops
}

// PushIntegralsToAtoms is Fig. 2's top-down pass: it adds every ancestor's
// collected partial integral into the atoms below and converts the totals
// into Born radii, but only for atoms whose position in the octree item
// order falls inside [sid, eid) — the "ith segment of atoms" a rank owns.
// radii is indexed by original atom index; entries outside the segment are
// left untouched. Returns the number of tree nodes visited.
func (s *System) PushIntegralsToAtoms(acc *bornAccum, sid, eid int, radii []float64) int64 {
	return s.pushIntegrals(0, 0, geom.Vec3{}, geom.Mat3{}, acc, int32(sid), int32(eid), radii)
}

// pushIntegrals carries the local field (carryS, carryG, carryH) collected
// at ancestors, expressed about the current node's center: the field value
// at position x with ξ = x − c_node is carryS + carryG·ξ (+ ½ξᵀ·carryH·ξ
// at OrderQuadrupole). The Hessian branches are guarded on acc.nodeH so
// the p≤1 arithmetic stays expression-for-expression what it was — even
// adding an exact +0.0 could flip the sign bit of a −0.0 partial.
func (s *System) pushIntegrals(a int32, carryS float64, carryG geom.Vec3, carryH geom.Mat3, acc *bornAccum, sid, eid int32, radii []float64) int64 {
	an := &s.TA.Nodes[a]
	// Prune subtrees entirely outside the segment: node item ranges are
	// contiguous, so the overlap test is two comparisons.
	if an.End <= sid || an.Start >= eid {
		return 1
	}
	carryS += acc.nodeS[a]
	carryG = carryG.Add(acc.nodeG[a])
	if acc.nodeH != nil {
		for t := 0; t < 9; t++ {
			carryH[t] += acc.nodeH[a][t]
		}
	}
	if an.Leaf {
		r4Form := s.Params.Integral == IntegralR4
		for pos := max(an.Start, sid); pos < min(an.End, eid); pos++ {
			ai := s.TA.Items[pos]
			xi := s.atomPos[ai].Sub(an.Center)
			v := acc.atomS[ai] + carryS + carryG.Dot(xi)
			if acc.nodeH != nil {
				v += 0.5 * xi.Dot(carryH.MulVec(xi))
			}
			if r4Form {
				radii[ai] = bornRadiusFromIntegralR4(v, s.Mol.Atoms[ai].Radius)
			} else {
				radii[ai] = bornRadiusFromIntegral(v, s.Mol.Atoms[ai].Radius)
			}
		}
		return 1
	}
	ops := int64(1)
	for _, c := range an.Children {
		if c != octree.NoChild {
			// Re-center the local carry about the child's center:
			// S' = S + G·s + ½sᵀHs, G' = G + Hs, H' = H.
			shift := s.TA.Nodes[c].Center.Sub(an.Center)
			cs := carryS + carryG.Dot(shift)
			cg := carryG
			if acc.nodeH != nil {
				hs := carryH.MulVec(shift)
				cs += 0.5 * shift.Dot(hs)
				cg = cg.Add(hs)
			}
			ops += s.pushIntegrals(c, cs, cg, carryH, acc, sid, eid, radii)
		}
	}
	return ops
}

// payloadLen is the number of float64s in the accumulator's flat numeric
// payload (the Allreduce / checkpoint wire shape). The Hessian block is
// present only at OrderQuadrupole, so default-order payloads are
// byte-identical to the pre-Accuracy encoding.
func (b *bornAccum) payloadLen() int {
	n := 4*len(b.nodeS) + len(b.atomS)
	if b.nodeH != nil {
		n += 9 * len(b.nodeH)
	}
	return n
}

// encode flattens the numeric fields into the wire layout
// [nodeS | nodeG.X nodeG.Y nodeG.Z per node | (nodeH, 9 per node) | atomS].
// The near/far tallies stay rank-local by design.
func (b *bornAccum) encode() []float64 {
	flat := make([]float64, 0, b.payloadLen())
	flat = append(flat, b.nodeS...)
	for _, g := range b.nodeG {
		flat = append(flat, g.X, g.Y, g.Z)
	}
	if b.nodeH != nil {
		for i := range b.nodeH {
			flat = append(flat, b.nodeH[i][:]...)
		}
	}
	flat = append(flat, b.atomS...)
	return flat
}

// decode reads the encode layout back into the accumulator's slices.
func (b *bornAccum) decode(flat []float64) {
	copy(b.nodeS, flat)
	off := len(b.nodeS)
	for i := range b.nodeG {
		b.nodeG[i] = geom.V(flat[off], flat[off+1], flat[off+2])
		off += 3
	}
	if b.nodeH != nil {
		for i := range b.nodeH {
			copy(b.nodeH[i][:], flat[off:off+9])
			off += 9
		}
	}
	copy(b.atomS, flat[off:])
}

// BornRadii runs the full serial octree pipeline (APPROX-INTEGRALS over
// every quadrature leaf, then PUSH-INTEGRALS-TO-ATOMS over all atoms) and
// returns the Born radii and the interaction-evaluation count.
func (s *System) BornRadii() ([]float64, int64) {
	acc := s.newBornAccum()
	ops := s.approxAllIntegrals(acc)
	radii := make([]float64, s.NumAtoms())
	ops += s.PushIntegralsToAtoms(acc, 0, s.NumAtoms(), radii)
	return radii, ops
}
