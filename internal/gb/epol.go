package gb

import (
	"math"
	"math/bits"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
)

// NaiveEpol evaluates Eq. 2 exactly: Epol = −(τ/2)·κ·Σ_{i,j} q_i q_j /
// f_GB(r_ij, R_i, R_j) over all ordered atom pairs including i = j (the
// self term q_i²/R_i). O(M²). Returns the energy in kcal/mol and the pair
// count.
func (s *System) NaiveEpol(radii []float64) (float64, int64) {
	kernel := pairEnergyKernel(s.Params.Math)
	atoms := s.Mol.Atoms
	sum := 0.0
	ops := int64(0)
	for i := range atoms {
		qi, pi, ri := atoms[i].Charge, atoms[i].Pos, radii[i]
		// Self term.
		sum += qi * qi / ri
		ops++
		for j := i + 1; j < len(atoms); j++ {
			r2 := pi.Dist2(atoms[j].Pos)
			sum += 2 * kernel(qi*atoms[j].Charge, r2, ri*radii[j])
			ops++
		}
	}
	return -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum, ops
}

// epolAggregates holds the per-node Born-radius-class moments of Fig. 3:
// class k collects the atoms with Born radius in [Rmin(1+ε)^k,
// Rmin(1+ε)^(k+1)). Only the classes present under a node are stored
// (DESIGN.md §11): node n's are cls[off[n]:off[n+1]], ascending, with
// their moments at the same positions of q, dip and quad.
type epolAggregates struct {
	M       int       // number of classes: ceil(log_{1+ε}(Rmax/Rmin)), ≥ 1
	Rmin    float64   //
	powR    []float64 // powR[k] = Rmin²·(1+ε)^(k+1) for k ∈ [0, 2M)
	classOf []int     // per-atom class (original index)
	off     []int     // per-node entry offsets, NumNodes+1 of them
	cls     []uint8   // class index per entry (M ≤ maxEpolClasses ≤ 256)
	q       []float64 // class charge Q_U[k] per entry
	// dip is the class charge dipole Σ q_a·(p_a − center) about the node's
	// ball center: the first-order (FMM p=1) correction that the
	// "Greengard–Rokhlin type" far field needs, because protein charge
	// distributions are locally dipolar and a pure monopole histogram
	// drops their leading far-field term.
	dip []geom.Vec3
	// order is the expansion order the far-field evaluation runs at
	// (always built from the owning system's accuracy spec). The dip
	// slice is populated regardless — it is cheap and Complex shares
	// aggregates across passes — but OrderMonopole evaluation ignores it.
	order int
	// quad is the class charge quadrupole Σ q_a·m_a m_aᵀ (m_a = p_a −
	// center): the second-order moment of the p=2 far field. Nil below
	// OrderQuadrupole.
	quad []geom.Mat3
}

// maxEpolClasses caps the histogram width: below the corresponding bin
// width the far-field binning error is negligible next to the clustering
// error, and the cap bounds the O(M²) class-pair loops.
const maxEpolClasses = 128

// classRank returns the position of class k among the classes of set, a
// two-word bitset (so maxEpolClasses is at most 128).
func classRank(set *[2]uint64, k int) int {
	if k < 64 {
		return bits.OnesCount64(set[0] & (1<<k - 1))
	}
	return bits.OnesCount64(set[0]) + bits.OnesCount64(set[1]&(1<<(k-64)-1))
}

// buildEpolAggregates computes the class aggregates for the given Born
// radii. The bin width is log(1+ε) unless that would exceed
// maxEpolClasses, in which case the bins are widened just enough to span
// [Rmin, Rmax].
func (s *System) buildEpolAggregates(radii []float64) *epolAggregates {
	rmin, rmax := math.Inf(1), 0.0
	for _, r := range radii {
		if r < rmin {
			rmin = r
		}
		if r > rmax {
			rmax = r
		}
	}
	return s.buildEpolAggregatesRange(radii, rmin, rmax)
}

// buildEpolAggregatesRange builds the aggregates over an explicit radius
// range [rmin, rmax] — two systems sharing a range produce directly
// comparable class indices (the cross-molecule energy pass of Complex).
// The moments accumulate in the order of a dense NumNodes·M layout, so
// each entry is bitwise its dense slot (DESIGN.md §11).
func (s *System) buildEpolAggregatesRange(radii []float64, rmin, rmax float64) *epolAggregates {
	eps := math.Min(s.Params.EpsEpol, defaultBinEps)
	if s.Params.EpsBin > 0 {
		eps = s.Params.EpsBin
	}
	agg := &epolAggregates{Rmin: rmin, order: s.order()}
	epsBin := eps
	if rmax > rmin {
		if need := math.Log(rmax/rmin) / math.Log1p(eps); need+1 > maxEpolClasses {
			epsBin = math.Expm1(math.Log(rmax/rmin) / (maxEpolClasses - 1))
		}
	}
	logBase := math.Log1p(epsBin)
	if rmax <= rmin {
		agg.M = 1
	} else {
		agg.M = int(math.Ceil(math.Log(rmax/rmin)/logBase)) + 1
		if agg.M > maxEpolClasses {
			agg.M = maxEpolClasses
		}
	}
	agg.classOf = make([]int, len(radii))
	for i, r := range radii {
		k := 0
		if r > rmin {
			k = int(math.Log(r/rmin) / logBase)
		}
		if k >= agg.M {
			k = agg.M - 1
		}
		agg.classOf[i] = k
	}
	// powR[k] = Rmin²(1+ε)^(k+1): the class-product representative at the
	// geometric middle of its cell (a pair (i, j) has true R_iR_j in
	// [Rmin²(1+ε)^(i+j), Rmin²(1+ε)^(i+j+2))), which halves the bias of
	// the paper's lower-edge (1+ε)^(i+j) form.
	agg.powR = make([]float64, 2*agg.M)
	for k := range agg.powR {
		agg.powR[k] = rmin * rmin * math.Pow(1+epsBin, float64(k+1))
	}

	// Class sets (one bit per class), then offsets and class lists.
	// Parents precede children in DFS index order, so iterating in
	// reverse has every child ready before its parent.
	nodes := s.TA.Nodes
	sets := make([][2]uint64, len(nodes))
	nnz := 0
	for i := len(nodes) - 1; i >= 0; i-- {
		set := &sets[i]
		if nodes[i].Leaf {
			for _, ai := range s.TA.ItemsOf(int32(i)) {
				k := agg.classOf[ai]
				set[k>>6] |= 1 << (k & 63)
			}
		} else {
			for _, c := range nodes[i].Children {
				if c != octree.NoChild {
					set[0] |= sets[c][0]
					set[1] |= sets[c][1]
				}
			}
		}
		nnz += bits.OnesCount64(set[0]) + bits.OnesCount64(set[1])
	}
	agg.off = make([]int, 1, len(nodes)+1)
	agg.cls = make([]uint8, 0, nnz)
	for _, set := range sets {
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				agg.cls = append(agg.cls, uint8(w<<6+bits.TrailingZeros64(word)))
			}
		}
		agg.off = append(agg.off, len(agg.cls))
	}
	agg.q = make([]float64, nnz)
	agg.dip = make([]geom.Vec3, nnz)
	if agg.order == OrderQuadrupole {
		agg.quad = make([]geom.Mat3, nnz)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		base := agg.off[i]
		if n.Leaf {
			for _, ai := range s.TA.ItemsOf(int32(i)) {
				e := base + classRank(&sets[i], agg.classOf[ai])
				q := s.Mol.Atoms[ai].Charge
				agg.q[e] += q
				agg.dip[e] = agg.dip[e].Add(s.atomPos[ai].Sub(n.Center).Scale(q))
				if agg.quad != nil {
					m := s.atomPos[ai].Sub(n.Center)
					addOuter(&agg.quad[e], m.Scale(q), m)
				}
			}
			continue
		}
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			shift := nodes[c].Center.Sub(n.Center)
			for ce := agg.off[c]; ce < agg.off[c+1]; ce++ {
				e := base + classRank(&sets[i], int(agg.cls[ce]))
				q := agg.q[ce]
				agg.q[e] += q
				if agg.quad != nil {
					// Re-center the child quadrupole about the parent:
					// K' = K + s⊗D + D⊗s + q·s⊗s, with the child dipole D
					// taken BEFORE its own re-centering.
					cd := agg.dip[ce]
					kq := &agg.quad[e]
					cq := &agg.quad[ce]
					for t := 0; t < 9; t++ {
						kq[t] += cq[t]
					}
					addOuter(kq, shift, cd)
					addOuter(kq, cd, shift)
					addOuter(kq, shift.Scale(q), shift)
				}
				// Re-center the child dipole about the parent center.
				agg.dip[e] = agg.dip[e].Add(agg.dip[ce]).Add(shift.Scale(q))
			}
		}
	}
	return agg
}

// epolOpeningScale multiplies Fig. 3's far threshold (1 + 2/ε). With the
// first-order dipole correction in farClassSum the printed criterion
// already lands the realized error in the paper's Fig. 10 band (≤1.5% at
// ε = 0.9), so the default is 1; the knob remains for the ablation bench.
const epolOpeningScale = 1.0

// defaultBinEps caps the Born-radius class width: the histogram binning
// error is the accuracy floor of the far field, and bins wider than
// ln(1.2) measurably bias f_GB (EXPERIMENTS.md calibration: at ε = 0.9
// the paper-style ln(1+ε) bins cost ~5% energy error versus ~0.6% at
// 0.2, for ~20% more work).
const defaultBinEps = 0.2

// epolFarFactor returns the threshold multiplier (1 + 2/ε)·scale of the
// energy far criterion.
func epolFarFactor(eps, scale float64) float64 {
	if scale <= 0 {
		scale = epolOpeningScale
	}
	return (1 + 2/eps) * scale
}

// epolFarFactorOrder generalizes epolFarFactor to the expansion order p:
// the clustering error of an order-p class field scales like
// ((r_U+r_V)/d)^(p+1) ≤ (1/factor)^(p+1), so holding the bound at the
// calibrated p=1 value (1/factor)² gives factor_p = factor^(2/(p+1)) —
// tighter (larger) for the monopole field, looser for the quadrupole
// field at the same target error. The p=1 branch returns the legacy
// factor literally so the default stays bitwise identical.
func epolFarFactorOrder(eps, scale float64, order int) float64 {
	f := epolFarFactor(eps, scale)
	if order == OrderDipole {
		return f
	}
	return math.Pow(f, 2/float64(order+1))
}

// epolFar reports whether node balls (separation d, radii ru, rv) satisfy
// the far criterion r_UV > (r_U+r_V)·factor.
func epolFar(d, ru, rv, factor float64) bool {
	return d > (ru+rv)*factor
}

// pairTally splits an energy traversal's evaluation count into exact
// (near) and class-approximated (far) pair evaluations for the obs
// counters. A nil tally disables counting, so callers that only want the
// sum (Complex, the distributed data variants) pass nil.
type pairTally struct{ near, far int64 }

func (t *pairTally) addNear(n int64) {
	if t != nil {
		t.near += n
	}
}

func (t *pairTally) addFar(n int64) {
	if t != nil {
		t.far += n
	}
}

// ApproxEpol is Fig. 3's APPROX-Epol(U, V): the raw pair sum
// Σ q_u q_v / f_GB between the atoms under U and the atoms under leaf V,
// approximated by class aggregates when (U, V) is far, exact at leaves.
// Returns (sum, interaction evaluations).
func (s *System) ApproxEpol(u, v int32, radii []float64, agg *epolAggregates) (float64, int64) {
	return s.approxEpol(u, v, radii, agg, s.epolFactor(), nil)
}

func (s *System) approxEpol(u, v int32, radii []float64, agg *epolAggregates,
	factor float64, tally *pairTally) (float64, int64) {
	un := &s.TA.Nodes[u]
	vn := &s.TA.Nodes[v]
	d := un.Center.Dist(vn.Center)
	approx := s.Params.Math == ApproxMath
	// The class approximation only applies when U is internal: leaf–leaf
	// pairs are evaluated exactly below at comparable cost (≤ leaf² pairs
	// vs nnz² class pairs), and skipping the binning there matters
	// because two small leaves can be geometrically "far" (tiny radii)
	// while still close on the f_GB scale √(R_iR_j), where binned radii
	// misprice the kernel.
	if u != v && !un.Leaf && epolFar(d, un.Radius, vn.Radius, factor) {
		return farClassSum(agg, u, agg, v, d, vn.Center.Sub(un.Center), approx, tally)
	}
	if un.Leaf {
		// Exact: ordered pairs (u-atom, v-atom); self terms arise when
		// U == V via r² = 0 ⇒ f = R_i (q_i²/R_i). The exact term is
		// written out so fGB inlines into the loop.
		sum := 0.0
		ops := int64(0)
		uItems := s.TA.ItemsOf(u)
		vItems := s.TA.ItemsOf(v)
		for _, ui := range uItems {
			qi, pi, ri := s.Mol.Atoms[ui].Charge, s.atomPos[ui], radii[ui]
			for _, vi := range vItems {
				if ui == vi {
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
		}
		tally.addNear(ops)
		return sum, ops
	}
	sum := 0.0
	ops := int64(1)
	for _, c := range un.Children {
		if c != octree.NoChild {
			cs, cops := s.approxEpol(c, v, radii, agg, factor, tally)
			sum += cs
			ops += cops
		}
	}
	return sum, ops
}

// farClassSum evaluates the far-field interaction of node U of aggregate
// set ua with node V of set va (one set within a molecule, two sets over
// one radius range across molecules) at center distance d (direction
// vector dvec = c_V − c_U): for every occupied class pair (i, j), the
// order-p expansion of g(|d·d̂ + δ|) about δ = 0, with δ = m_v − m_u the
// pair offset and g(r) = 1/f_GB(r; R_iR_j ≈ Rmin²(1+ε)^(i+j+1)):
//
//	p ≥ 0:  Q_U[i]·Q_V[j]·g(d)
//	p ≥ 1:  + g'(d)·[Q_U[i]·(d̂·D_V[j]) − (d̂·D_U[i])·Q_V[j]]
//	p = 2:  + ½g″(d)·⟨(d̂·δ)²⟩ + ½(g'(d)/d)·⟨|δ|² − (d̂·δ)²⟩
//
// where the second-moment contractions come from the class quadrupoles:
// ⟨(d̂·δ)²⟩ = Q_U·d̂ᵀK_Vd̂ − 2(d̂·D_U)(d̂·D_V) + d̂ᵀK_Ud̂·Q_V and
// ⟨|δ|²⟩ = Q_U·tr K_V − 2 D_U·D_V + tr K_U·Q_V. Classes whose moments
// vanish along d̂ are skipped and not counted. Returns (raw sum,
// evaluations).
func farClassSum(ua *epolAggregates, u int32, va *epolAggregates, v int32,
	d float64, dvec geom.Vec3, approx bool, tally *pairTally) (float64, int64) {
	r2 := d * d
	dhat := dvec.Scale(1 / d)
	ord := ua.order
	sum := 0.0
	ops := int64(0)
	vlo, vhi := va.off[v], va.off[v+1]
	for a := ua.off[u]; a < ua.off[u+1]; a++ {
		i := int(ua.cls[a])
		qu := ua.q[a]
		var du float64
		var dipU geom.Vec3
		if ord >= OrderDipole {
			dipU = ua.dip[a]
			du = dhat.Dot(dipU)
		}
		if qu == 0 && du == 0 &&
			(ord != OrderQuadrupole || ua.quad[a] == (geom.Mat3{})) {
			continue
		}
		for b := vlo; b < vhi; b++ {
			qv := va.q[b]
			var dv float64
			var dipV geom.Vec3
			if ord >= OrderDipole {
				dipV = va.dip[b]
				dv = dhat.Dot(dipV)
			}
			if qv == 0 && dv == 0 &&
				(ord != OrderQuadrupole || va.quad[b] == (geom.Mat3{})) {
				continue
			}
			t := ua.powR[i+int(va.cls[b])]
			var e float64
			if approx {
				e = fastExp(-r2 / (4 * t))
			} else {
				e = math.Exp(-r2 / (4 * t))
			}
			f2 := r2 + t*e
			var invF float64
			if approx {
				invF = fastInvSqrt(f2)
			} else {
				invF = 1 / math.Sqrt(f2)
			}
			if ord == OrderMonopole {
				sum += qu * qv * invF
				ops++
				continue
			}
			// g'(d) = −d·(1 − e/4)/f³.
			gp := -d * (1 - e/4) * invF * invF * invF
			sum += qu*qv*invF + gp*(qu*dv-du*qv)
			if ord == OrderQuadrupole {
				// g″(d) = ¾u'²/f⁵ − ½u″/f³ with u = f², u' = 2d(1−e/4),
				// u″ = 2(1−e/4) + (r²/4t)e.
				up := 2 * d * (1 - e/4)
				upp := 2*(1-e/4) + (r2/(4*t))*e
				invF3 := invF * invF * invF
				gpp := 0.75*up*up*invF3*invF*invF - 0.5*upp*invF3
				ku, kv := &ua.quad[a], &va.quad[b]
				a2 := qu*dhat.Dot(kv.MulVec(dhat)) - 2*du*dv + dhat.Dot(ku.MulVec(dhat))*qv
				b2 := qu*(kv[0]+kv[4]+kv[8]) - 2*dipU.Dot(dipV) + (ku[0]+ku[4]+ku[8])*qv
				sum += 0.5*gpp*a2 + (0.5*gp/d)*(b2-a2)
			}
			ops++
		}
	}
	if ops == 0 {
		ops = 1
	}
	tally.addFar(ops)
	return sum, ops
}

// Epol runs the full serial octree energy pass: every atoms-octree leaf V
// interacts with the whole tree (Fig. 4 Step 6), the raw sums are scaled
// by −τκ/2. Returns the energy in kcal/mol and the interaction count.
func (s *System) Epol(radii []float64) (float64, int64) {
	agg := s.buildEpolAggregates(radii)
	sum := 0.0
	ops := int64(0)
	for _, v := range s.aLeaves {
		vs, vops := s.ApproxEpol(s.TA.Root(), v, radii, agg)
		sum += vs
		ops += vops
	}
	return -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum, ops
}
