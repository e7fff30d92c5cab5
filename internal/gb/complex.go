package gb

import (
	"fmt"
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
)

// Complex implements the paper's §IV-C docking reuse: "for drug-design
// and docking where we need to place the ligand at thousands of different
// positions w.r.t. the receptor, we can move the same octree to different
// positions or rotate it as needed ... and then recompute the energy
// values. Therefore, we can consider the octree construction cost as a
// pre-processing cost".
//
// A Complex holds two prepared Systems. Scoring a pose transforms the
// ligand's trees and surface in O(n) (no rebuilds), reuses each
// molecule's cached self Born integrals, computes only the cross-surface
// integrals and the three energy interactions (rec–rec, lig–lig,
// rec–lig) with the pose-dependent radii. Like the paper's scheme, the
// molecular surfaces themselves are frozen: interface desolvation enters
// through the Born radii (each molecule's atoms see the other's surface
// flux), not through re-culling the surfaces.
type Complex struct {
	rec, lig *System
	// Cached pose-independent self integrals (accumulator of each
	// molecule's own surface against its own atom tree).
	recSelf, ligSelf *bornAccum
}

// NewComplex prepares a complex from two systems built with the same
// Params.
func NewComplex(rec, lig *System) (*Complex, error) {
	if rec.Params != lig.Params {
		return nil, fmt.Errorf("gb: receptor and ligand params differ")
	}
	c := &Complex{rec: rec, lig: lig}
	c.recSelf = rec.newBornAccum()
	for _, q := range rec.qLeaves {
		rec.ApproxIntegrals(rec.TA.Root(), q, c.recSelf)
	}
	c.ligSelf = lig.newBornAccum()
	for _, q := range lig.qLeaves {
		lig.ApproxIntegrals(lig.TA.Root(), q, c.ligSelf)
	}
	return c, nil
}

// PoseResult is the outcome of one pose evaluation.
type PoseResult struct {
	// Epol is the complex's polarization energy (kcal/mol).
	Epol float64
	// RecBorn / LigBorn are the pose-dependent Born radii.
	RecBorn, LigBorn []float64
	// Ops counts interaction evaluations.
	Ops int64
}

// Epol scores the complex with the ligand rigidly transformed by tr.
func (c *Complex) Epol(tr geom.Transform) (*PoseResult, error) {
	rec, lig := c.rec, c.lig
	res := &PoseResult{}

	// ---- Move the ligand: O(n) transforms, no rebuilds -----------------
	ligPos := make([]geom.Vec3, len(lig.atomPos))
	for i, p := range lig.atomPos {
		ligPos[i] = tr.Apply(p)
	}
	ligTA, err := lig.TA.Transformed(tr, ligPos)
	if err != nil {
		return nil, err
	}
	ligSurf := lig.Surf.ApplyTransform(tr)
	ligQPos := ligSurf.Positions()
	ligTQ, err := lig.TQ.Transformed(tr, ligQPos)
	if err != nil {
		return nil, err
	}
	// The ligand's aggregated normals/moments rotate with the pose.
	ligNormals := make([]geom.Vec3, len(lig.nodeNormal))
	for i, n := range lig.nodeNormal {
		ligNormals[i] = tr.ApplyVector(n)
	}
	ligMoments := make([]geom.Mat3, len(lig.nodeMoment))
	for i := range lig.nodeMoment {
		// T' = R T Rᵀ (both the normal and the offset rotate).
		ligMoments[i] = tr.R.Mul(lig.nodeMoment[i]).Mul(tr.R.Transpose())
	}
	var ligMoments2 []bornMom2
	if lig.nodeMoment2 != nil {
		// S'[i] = Σ_a R[i][a]·(R S[a] Rᵀ): the normal component mixes
		// through R while each offset pair rotates like a Mat3.
		ligMoments2 = make([]bornMom2, len(lig.nodeMoment2))
		for n := range lig.nodeMoment2 {
			var w bornMom2
			for a := 0; a < 3; a++ {
				w[a] = tr.R.Mul(lig.nodeMoment2[n][a]).Mul(tr.R.Transpose())
			}
			for i := 0; i < 3; i++ {
				for t := 0; t < 9; t++ {
					ligMoments2[n][i][t] = tr.R[3*i]*w[0][t] + tr.R[3*i+1]*w[1][t] + tr.R[3*i+2]*w[2][t]
				}
			}
		}
	}

	// ---- Born radii: cached self + cross-surface passes -----------------
	recAcc := rec.newBornAccum()
	copyAccum(recAcc, c.recSelf)
	cross := &bornPass{
		ta: rec.TA, atomPos: rec.atomPos,
		tq: ligTQ, qpts: ligSurf.Points,
		normals: ligNormals, moments: ligMoments, moments2: ligMoments2,
		beta: rec.bornBeta(), ord: rec.order(), r4: rec.Params.Integral == IntegralR4,
	}
	for _, q := range lig.qLeaves {
		res.Ops += cross.run(rec.TA.Root(), q, recAcc)
	}
	res.RecBorn = make([]float64, rec.NumAtoms())
	rec.PushIntegralsToAtoms(recAcc, 0, rec.NumAtoms(), res.RecBorn)

	ligAcc := lig.newBornAccum()
	// The cached ligand self integrals were computed in the reference
	// frame; the scalar flux sums are invariant under rigid motion of
	// both the atoms and the surface, but the collected gradient VECTORS
	// rotate with the pose.
	copyAccum(ligAcc, c.ligSelf)
	for i := range ligAcc.nodeG {
		ligAcc.nodeG[i] = tr.ApplyVector(c.ligSelf.nodeG[i])
	}
	if ligAcc.nodeH != nil {
		// The collected Hessians are rank-2 tensors: H' = R H Rᵀ.
		for i := range ligAcc.nodeH {
			ligAcc.nodeH[i] = tr.R.Mul(c.ligSelf.nodeH[i]).Mul(tr.R.Transpose())
		}
	}
	crossBack := &bornPass{
		ta: ligTA, atomPos: ligPos,
		tq: rec.TQ, qpts: rec.Surf.Points,
		normals: rec.nodeNormal, moments: rec.nodeMoment, moments2: rec.nodeMoment2,
		beta: rec.bornBeta(), ord: rec.order(), r4: rec.Params.Integral == IntegralR4,
	}
	for _, q := range rec.qLeaves {
		res.Ops += crossBack.run(ligTA.Root(), q, ligAcc)
	}
	res.LigBorn = make([]float64, lig.NumAtoms())
	pushLig := &System{ // minimal view for the push pass on moved trees
		Params: lig.Params, Mol: lig.Mol, TA: ligTA, atomPos: ligPos,
	}
	pushLig.PushIntegralsToAtoms(ligAcc, 0, lig.NumAtoms(), res.LigBorn)

	// ---- Energy: three interactions with shared radius classes ---------
	rmin, rmax := math.Inf(1), 0.0
	for _, r := range res.RecBorn {
		rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
	}
	for _, r := range res.LigBorn {
		rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
	}
	recView := &System{Params: rec.Params, Mol: rec.Mol, TA: rec.TA, atomPos: rec.atomPos}
	ligView := &System{Params: lig.Params, Mol: lig.Mol, TA: ligTA, atomPos: ligPos}
	recAgg := recView.buildEpolAggregatesRange(res.RecBorn, rmin, rmax)
	ligAgg := ligView.buildEpolAggregatesRange(res.LigBorn, rmin, rmax)

	factor := rec.epolFactor()
	sum := 0.0
	// rec–rec and lig–lig (ordered pairs within each molecule).
	for _, v := range rec.aLeaves {
		vs, vops := recView.approxEpol(rec.TA.Root(), v, res.RecBorn, recAgg, factor, wholeTree(rec.TA), nil)
		sum += vs
		res.Ops += vops
	}
	for _, v := range ligTA.Leaves() {
		vs, vops := ligView.approxEpol(ligTA.Root(), v, res.LigBorn, ligAgg, factor, wholeTree(ligTA), nil)
		sum += vs
		res.Ops += vops
	}
	// rec–lig cross terms, counted twice (ordered-pair convention).
	ep := &epolCrossPass{
		u: recView, uAgg: recAgg, uRadii: res.RecBorn,
		v: ligView, vAgg: ligAgg, vRadii: res.LigBorn,
		factor: factor,
	}
	for _, v := range ligTA.Leaves() {
		vs, vops := ep.run(rec.TA.Root(), v)
		sum += 2 * vs
		res.Ops += vops
	}
	res.Epol = -0.5 * Tau(rec.Params.EpsSolvent) * CoulombKcal * sum
	return res, nil
}

func copyAccum(dst, src *bornAccum) {
	copy(dst.nodeS, src.nodeS)
	copy(dst.nodeG, src.nodeG)
	copy(dst.nodeH, src.nodeH)
	copy(dst.atomS, src.atomS)
}

// bornPass is APPROX-INTEGRALS across two systems: atom tree ta (with
// atomPos) against quadrature tree tq (with its points and aggregates).
type bornPass struct {
	ta       *octree.Tree
	atomPos  []geom.Vec3
	tq       *octree.Tree
	qpts     []surface.QPoint
	normals  []geom.Vec3
	moments  []geom.Mat3
	moments2 []bornMom2 // second-order moments, nil below OrderQuadrupole
	beta     float64
	ord      int
	r4       bool
}

// run accumulates quadrature leaf q's contribution into acc (the same
// recursion as System.approxIntegrals, over explicit trees).
func (bp *bornPass) run(a, q int32, acc *bornAccum) int64 {
	an := &bp.ta.Nodes[a]
	qn := &bp.tq.Nodes[q]
	d := an.Center.Dist(qn.Center)
	pow := 6.0
	if bp.r4 {
		pow = 4
	}
	if bornFar(d, an.Radius, qn.Radius, bp.beta) {
		diff := qn.Center.Sub(an.Center)
		r2 := d * d
		rp := r2 * r2
		if !bp.r4 {
			rp *= r2
		}
		var m2 *bornMom2
		var hslot *geom.Mat3
		if bp.ord == OrderQuadrupole {
			m2 = &bp.moments2[q]
			hslot = &acc.nodeH[a]
		}
		bornFarNode(bp.ord, diff, d, rp, pow, bp.normals[q], &bp.moments[q], m2,
			&acc.nodeS[a], &acc.nodeG[a], hslot)
		return 1
	}
	if an.Leaf {
		ops := int64(0)
		qItems := bp.tq.ItemsOf(q)
		for _, ai := range bp.ta.ItemsOf(a) {
			pa := bp.atomPos[ai]
			sum := 0.0
			for _, qi := range qItems {
				qp := &bp.qpts[qi]
				dv := qp.Pos.Sub(pa)
				r2 := dv.Norm2()
				rp := r2 * r2
				if !bp.r4 {
					rp *= r2
				}
				sum += qp.Weight * dv.Dot(qp.Normal) / rp
			}
			acc.atomS[ai] += sum
			ops += int64(len(qItems))
		}
		return ops
	}
	ops := int64(1)
	for _, ch := range an.Children {
		if ch != octree.NoChild {
			ops += bp.run(ch, q, acc)
		}
	}
	return ops
}

// epolCrossPass is APPROX-Epol between two different atom trees: node u
// descends system u's tree against leaf v of system v's tree.
type epolCrossPass struct {
	u      *System
	uAgg   *epolAggregates
	uRadii []float64
	v      *System
	vAgg   *epolAggregates
	vRadii []float64
	factor float64
}

func (ep *epolCrossPass) run(u, v int32) (float64, int64) {
	un := &ep.u.TA.Nodes[u]
	vn := &ep.v.TA.Nodes[v]
	d := un.Center.Dist(vn.Center)
	approx := ep.u.Params.Math == ApproxMath
	if !un.Leaf && epolFar(d, un.Radius, vn.Radius, ep.factor) {
		return farClassSum(ep.uAgg, u, ep.vAgg, v, d, vn.Center.Sub(un.Center), approx, nil)
	}
	if un.Leaf {
		sum := 0.0
		ops := int64(0)
		for _, ui := range ep.u.TA.ItemsOf(u) {
			qi, pi, ri := ep.u.Mol.Atoms[ui].Charge, ep.u.atomPos[ui], ep.uRadii[ui]
			for _, vi := range ep.v.TA.ItemsOf(v) {
				r2 := pi.Dist2(ep.v.atomPos[vi])
				if qq, rr := qi*ep.v.Mol.Atoms[vi].Charge, ri*ep.vRadii[vi]; approx {
					sum += qq * invFGBApprox(r2, rr)
				} else {
					sum += qq * (1 / fGB(r2, rr))
				}
				ops++
			}
		}
		return sum, ops
	}
	sum := 0.0
	ops := int64(1)
	for _, ch := range un.Children {
		if ch != octree.NoChild {
			cs, cops := ep.run(ch, v)
			sum += cs
			ops += cops
		}
	}
	return sum, ops
}
