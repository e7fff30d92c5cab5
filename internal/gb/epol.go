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
	logBase float64   // log(1+ε) of the realized bin width
	powR    []float64 // powR[k] = Rmin²·(1+ε)^(k+1) for k ∈ [0, 2M)
	radii   []float64 // per-atom Born radius, in T_A item order
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

// class returns the Born-radius class of radius r.
func (agg *epolAggregates) class(r float64) int {
	k := 0
	if r > agg.Rmin {
		k = int(math.Log(r/agg.Rmin) / agg.logBase)
	}
	return min(k, agg.M-1)
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
	eps := math.Min(s.Params.Accuracy.EpsEpol, defaultBinEps)
	if s.Params.Accuracy.BinWidth > 0 {
		eps = s.Params.Accuracy.BinWidth
	}
	agg := &epolAggregates{Rmin: rmin, order: s.order()}
	epsBin := eps
	if rmax > rmin {
		if need := math.Log(rmax/rmin) / math.Log1p(eps); need+1 > maxEpolClasses {
			epsBin = math.Expm1(math.Log(rmax/rmin) / (maxEpolClasses - 1))
		}
	}
	agg.logBase = math.Log1p(epsBin)
	if rmax <= rmin {
		agg.M = 1
	} else {
		agg.M = int(math.Ceil(math.Log(rmax/rmin)/agg.logBase)) + 1
		if agg.M > maxEpolClasses {
			agg.M = maxEpolClasses
		}
	}
	agg.radii = make([]float64, len(s.TA.Items))
	for k, ai := range s.TA.Items {
		agg.radii[k] = radii[ai]
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
			for _, r := range agg.radii[nodes[i].Start:nodes[i].End] {
				k := agg.class(r)
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
			recs, rs := s.atomsOf(n, agg)
			for k, r := range recs {
				e := base + classRank(&sets[i], agg.class(rs[k]))
				q := r.q
				agg.q[e] += q
				agg.dip[e] = agg.dip[e].Add(r.pos.Sub(n.Center).Scale(q))
				if agg.quad != nil {
					m := r.pos.Sub(n.Center)
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

// defaultBinEps caps the Born-radius class width: the histogram binning
// error is the accuracy floor of the far field, and bins wider than
// ln(1.2) measurably bias f_GB (EXPERIMENTS.md calibration: at ε = 0.9
// the paper-style ln(1+ε) bins cost ~5% energy error versus ~0.6% at
// 0.2, for ~20% more work).
const defaultBinEps = 0.2

// epolFarFactor returns Fig. 3's threshold multiplier 1 + 2/ε of the
// energy far criterion. With the first-order dipole correction in
// farClassSum the printed criterion already lands the realized error in
// the paper's Fig. 10 band (≤1.5% at ε = 0.9).
func epolFarFactor(eps float64) float64 {
	return 1 + 2/eps
}

// epolFarFactorOrder generalizes epolFarFactor to the expansion order p:
// the clustering error of an order-p class field scales like
// ((r_U+r_V)/d)^(p+1) ≤ (1/factor)^(p+1), so holding the bound at the
// calibrated p=1 value (1/factor)² gives factor_p = factor^(2/(p+1)) —
// tighter (larger) for the monopole field, looser for the quadrupole
// field at the same target error. The p=1 branch returns the legacy
// factor literally so the default stays bitwise identical.
func epolFarFactorOrder(eps float64, order int) float64 {
	f := epolFarFactor(eps)
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

// pairTally splits an energy traversal's interaction count into exact
// (near) and class-approximated (far) interactions for the obs counters
// pairs.epol.{near,far}. Like the op count, near counts ordered
// interactions, not kernel calls: a mutually near leaf pair evaluated
// once still counts on both sides (DESIGN.md §13). A nil tally disables
// counting, so callers that only want the sum (Complex, the distributed
// data variants) pass nil.
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

// ownsNear reports whether target leaf v evaluates the mutually near leaf
// block {u, v}, u ≠ v: the larger index owns it when u⊕v is odd, the
// smaller when it is even. The rule depends on the pair alone, so the
// block is summed once in the world whichever shares hold u and v, and a
// contiguous share owns about half of the blocks it has in common with
// another (DESIGN.md §13).
func ownsNear(v, u int32) bool { return ((u^v)&1 == 1) == (v > u) }

// epolReaches reports whether the energy traversal of target leaf t
// reaches leaf l as an exact leaf: whether none of l's proper ancestors W
// passes the pass's far test against t, with the same operands. The
// whole chain is walked: a child's ball need not nest in its parent's,
// and below factor 1 even an ancestor containing t can test far.
func (s *System) epolReaches(t, l int32, factor float64) bool {
	tn := &s.TA.Nodes[t]
	for w := s.TA.Nodes[l].Parent; w != octree.NoChild; w = s.TA.Nodes[w].Parent {
		wn := &s.TA.Nodes[w]
		if epolFar(wn.Center.Dist(tn.Center), wn.Radius, tn.Radius, factor) {
			return false
		}
	}
	return true
}

// epolPass is Fig. 3's APPROX-Epol(root, V), the one energy traversal of
// every caller: target leaves V of system v against the whole atom tree of
// source system u, over aggregate sets of one radius range.
//   - An own pass, u and v one *System, sums the ordered pairs within the
//     molecule. The diagonal block is i < j ×2 plus the self terms
//     q_i²/R_i, and a mutually near block is summed ×2 by its owner
//     (ownsNear) and skipped by the other target, so only the sum over
//     every target leaf, whatever ranks hold them, is Fig. 3's.
//   - A cross pass, two systems or a second view of one, sums the ordered
//     pairs (atom of u, atom of v) with every block at weight 1.
//
// For one target leaf the pass walks the source tree once, recording the
// far pairs and exact blocks in DFS order; it then evaluates the blocks in
// chunks, then the far pairs, and sums their values in DFS order
// (DESIGN.md §16).
type epolPass struct {
	u, v       *System
	uAgg, vAgg *epolAggregates
	factor     float64
	sc         *epolScratch
	tally      *pairTally
}

// leaf returns target leaf v's raw pair sum against the whole source tree
// and its interaction evaluations.
func (p *epolPass) leaf(v int32) (float64, int64) {
	return p.node(p.u.TA.Root(), v)
}

// node is APPROX-Epol(U, V): the raw pair sum Σ q_u q_v / f_GB between
// the atoms under source node u and the atoms under target leaf v, and
// its interaction evaluations; the count is always the ordered pairs',
// skipped blocks included.
func (p *epolPass) node(u, v int32) (float64, int64) {
	ns := p.sc.near
	ns.vals, ns.far = ns.vals[:0], ns.far[:0]
	vn := &p.v.TA.Nodes[v]
	ops := p.walk(u, v, vn)
	p.flushNear(v)
	approx := p.v.Params.Math == ApproxMath
	for _, f := range ns.far {
		dvec := vn.Center.Sub(p.u.TA.Nodes[f.u].Center)
		val, fops := farClassSum(p.uAgg, f.u, p.vAgg, v, f.d, dvec, approx, p.sc, p.tally)
		ns.vals[f.slot] = val
		ops += fops
	}
	sum := 0.0
	for _, x := range ns.vals {
		sum += x
	}
	return sum, ops
}

// walk records source node u's far pairs and exact blocks against target
// leaf v in DFS order. It returns the evaluations of the nodes it opens and
// the blocks it reaches; a far pair's are counted when it is evaluated.
func (p *epolPass) walk(u, v int32, vn *octree.Node) int64 {
	un := &p.u.TA.Nodes[u]
	ns := p.sc.near
	// The class approximation only applies when U is internal: leaf–leaf
	// pairs are evaluated exactly at comparable cost (≤ leaf² pairs vs
	// nnz² class pairs), and skipping the binning there matters because
	// two small leaves can be geometrically "far" (tiny radii) while still
	// close on the f_GB scale √(R_iR_j), where binned radii misprice the
	// kernel.
	if !un.Leaf {
		if d := un.Center.Dist(vn.Center); epolFar(d, un.Radius, vn.Radius, p.factor) {
			ns.far = append(ns.far, farPair{slot: len(ns.vals), u: u, d: d})
			ns.vals = append(ns.vals, 0)
			return 0
		}
		ops := int64(1)
		for _, c := range un.Children {
			if c != octree.NoChild {
				ops += p.walk(c, v, vn)
			}
		}
		return ops
	}
	ops := int64(un.Count()) * int64(vn.Count())
	p.tally.addNear(ops)
	switch {
	case p.u != p.v:
		p.pendNear(u, v, 1)
	case u == v:
		// f_GB is symmetric: the diagonal block sums i < j ×2 plus the
		// self terms.
		r, rR := p.v.atomsOf(vn, p.vAgg)
		sum, self := nearSum(r, rR, r, rR, true, p.v.Params.Math == ApproxMath)
		ns.vals = append(ns.vals, self+2*sum)
	case !p.u.epolReaches(u, v, p.factor):
		p.pendNear(u, v, 1)
	case ownsNear(v, u):
		p.pendNear(u, v, 2)
	}
	// A block the other target owns adds 0 and is not recorded: the leaf's
	// sum starts at +0 and never becomes −0, so leaving out a zero changes
	// no bit.
	return ops
}

// nearSum is the exact near field between two leaves: Σ q_u q_v / f_GB
// over the atom records ur × vr with Born radii uR, vR (contiguous, in
// T_A item order). With same set, ur and vr are one leaf: only the pairs
// i < j are summed and self returns Σ q_i²/R_i. The math mode is decided
// per row, outside the inner loop, and the exact term is written out so
// fGB inlines into it.
func nearSum(ur []atomRec, uR []float64, vr []atomRec, vR []float64, same, approx bool) (sum, self float64) {
	uR = uR[:len(ur)]
	for a := range ur {
		qi, pi, ri := ur[a].q, ur[a].pos, uR[a]
		vs, vsR := vr, vR
		if same {
			self += qi * qi / ri
			vs, vsR = vr[a+1:], vR[a+1:]
		}
		vsR = vsR[:len(vs)]
		if approx {
			for b := range vs {
				r2 := pi.Dist2(vs[b].pos)
				sum += qi * vs[b].q * invFGBApprox(r2, ri*vsR[b])
			}
			continue
		}
		for b := range vs {
			r2 := pi.Dist2(vs[b].pos)
			sum += qi * vs[b].q * (1 / fGB(r2, ri*vsR[b]))
		}
	}
	return sum, self
}

// epolScratch is one worker's energy-traversal scratch. Its far part is
// sized once per energy round by the class count M and overwritten by
// every far pair: g holds the kernel at each class sum (2M entries), v
// the target node's class moments along d̂ (at most M entries). Its near
// part holds the current target leaf's tape of far pairs and exact blocks
// (kernels.go) and grows on demand.
type epolScratch struct {
	g    []farKernel
	v    []farTarget
	near *nearScratch
}

// farKernel is g(d) = 1/f_GB(d; t) and the derivatives the expansion
// order needs, at the class-sum representative t = powR[i+j]; e is
// exp(−d²/4t), which the derivatives reuse.
type farKernel struct {
	e    float64
	invF float64 // g(d)
	gp   float64 // g′(d), p ≥ 1
	gpp  float64 // g″(d), p = 2
	hgd  float64 // ½g′(d)/d, p = 2
}

// farTarget is one class of the target node V: Q_V, d̂·D_V, and at p = 2
// d̂ᵀK_Vd̂ and tr K_V; skip marks moments that vanish along d̂.
type farTarget struct {
	cls           int
	q, dv, kd, tr float64
	skip          bool
}

func newEpolScratch(M int) *epolScratch {
	return &epolScratch{g: make([]farKernel, 2*M), v: make([]farTarget, M), near: new(nearScratch)}
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
// vanish along d̂ are skipped and not counted. The kernel depends on a
// class pair only through i + j, so g and its derivatives are evaluated
// once per class sum into sc (DESIGN.md §16). Returns (raw sum,
// evaluations).
func farClassSum(ua *epolAggregates, u int32, va *epolAggregates, v int32,
	d float64, dvec geom.Vec3, approx bool, sc *epolScratch, tally *pairTally) (float64, int64) {
	r2 := d * d
	dhat := dvec.Scale(1 / d)
	ord := ua.order
	ulo, uhi := ua.off[u], ua.off[u+1]
	vlo, vhi := va.off[v], va.off[v+1]
	// The kernel at every class sum of the span, in two passes: e and g
	// in a loop per math mode, then the derivatives the order needs.
	tab := sc.g
	klo, khi := int(ua.cls[ulo])+int(va.cls[vlo]), int(ua.cls[uhi-1])+int(va.cls[vhi-1])
	g, pw := tab[klo:khi+1], ua.powR[klo:khi+1]
	g = g[:len(pw)]
	if approx {
		for k, t := range pw {
			e := fastExp(-r2 / (4 * t))
			g[k].e, g[k].invF = e, fastInvSqrt(r2+t*e)
		}
	} else {
		farTable(pw, r2, g)
	}
	if ord >= OrderDipole {
		for k := range g {
			gk := &g[k]
			e, invF := gk.e, gk.invF
			// g'(d) = −d·(1 − e/4)/f³.
			gk.gp = -d * (1 - e/4) * invF * invF * invF
			if ord == OrderQuadrupole {
				// g″(d) = ¾u'²/f⁵ − ½u″/f³ with u = f², u' = 2d(1−e/4),
				// u″ = 2(1−e/4) + (r²/4t)e.
				t := pw[k]
				up := 2 * d * (1 - e/4)
				upp := 2*(1-e/4) + (r2/(4*t))*e
				invF3 := invF * invF * invF
				gk.gpp = 0.75*up*up*invF3*invF*invF - 0.5*upp*invF3
				gk.hgd = 0.5 * gk.gp / d
			}
		}
	}
	vt := sc.v[:vhi-vlo]
	for b := range vt {
		c := &vt[b]
		c.cls = int(va.cls[vlo+b])
		c.q = va.q[vlo+b]
		c.dv = 0
		if ord >= OrderDipole {
			c.dv = dhat.Dot(va.dip[vlo+b])
		}
		c.skip = c.q == 0 && c.dv == 0 &&
			(ord != OrderQuadrupole || va.quad[vlo+b] == (geom.Mat3{}))
		if ord == OrderQuadrupole {
			kv := &va.quad[vlo+b]
			c.kd = dhat.Dot(kv.MulVec(dhat))
			c.tr = kv[0] + kv[4] + kv[8]
		}
	}
	sum := 0.0
	ops := int64(0)
	for a := ulo; a < uhi; a++ {
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
		var kdU, trU float64
		if ord == OrderQuadrupole {
			ku := &ua.quad[a]
			kdU = dhat.Dot(ku.MulVec(dhat))
			trU = ku[0] + ku[4] + ku[8]
		}
		for b := range vt {
			c := &vt[b]
			if c.skip {
				continue
			}
			ops++
			gk := &tab[i+c.cls]
			if ord == OrderMonopole {
				sum += qu * c.q * gk.invF
				continue
			}
			sum += qu*c.q*gk.invF + gk.gp*(qu*c.dv-du*c.q)
			if ord == OrderQuadrupole {
				a2 := qu*c.kd - 2*du*c.dv + kdU*c.q
				b2 := qu*c.tr - 2*dipU.Dot(va.dip[vlo+b]) + trU*c.q
				sum += 0.5*gk.gpp*a2 + gk.hgd*(b2-a2)
			}
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
	p := epolPass{u: s, uAgg: agg, v: s, vAgg: agg, factor: s.epolFactor(), sc: newEpolScratch(agg.M)}
	sum := 0.0
	ops := int64(0)
	for _, v := range s.aLeaves {
		vs, vops := p.leaf(v)
		sum += vs
		ops += vops
	}
	return -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum, ops
}
