package gb

import (
	"fmt"
	"math"

	"gbpolar/internal/geom"
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
	rec.approxAllIntegrals(c.recSelf)
	c.ligSelf = lig.newBornAccum()
	lig.approxAllIntegrals(c.ligSelf)
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
	rec := c.rec
	lig, err := c.lig.moved(tr)
	if err != nil {
		return nil, err
	}
	res := &PoseResult{}

	// ---- Born radii: cached self + cross-surface passes -----------------
	recAcc := rec.newBornAccum()
	copyAccum(recAcc, c.recSelf)
	res.Ops += rec.withSurfaceOf(lig).approxAllIntegrals(recAcc)
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
	res.Ops += lig.withSurfaceOf(rec).approxAllIntegrals(ligAcc)
	res.LigBorn = make([]float64, lig.NumAtoms())
	lig.PushIntegralsToAtoms(ligAcc, 0, lig.NumAtoms(), res.LigBorn)

	// ---- Energy: three interactions with shared radius classes ---------
	rmin, rmax := math.Inf(1), 0.0
	for _, r := range res.RecBorn {
		rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
	}
	for _, r := range res.LigBorn {
		rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
	}
	recAgg := rec.buildEpolAggregatesRange(res.RecBorn, rmin, rmax)
	ligAgg := lig.buildEpolAggregatesRange(res.LigBorn, rmin, rmax)

	factor := rec.epolFactor()
	// The shared radius range gives both aggregate sets one class count,
	// so one scratch serves all three passes.
	sc := newEpolScratch(recAgg.M)
	sum := 0.0
	run := func(p epolPass, weight float64) {
		for _, v := range p.v.aLeaves {
			vs, vops := p.leaf(v)
			sum += weight * vs
			res.Ops += vops
		}
	}
	// rec–rec and lig–lig (ordered pairs within each molecule), then the
	// rec–lig cross terms, counted twice (ordered-pair convention).
	run(epolPass{u: rec, uAgg: recAgg, v: rec, vAgg: recAgg, factor: factor, sc: sc}, 1)
	run(epolPass{u: lig, uAgg: ligAgg, v: lig, vAgg: ligAgg, factor: factor, sc: sc}, 1)
	run(epolPass{u: rec, uAgg: recAgg, v: lig, vAgg: ligAgg, factor: factor, sc: sc}, 2)
	res.Epol = -0.5 * Tau(rec.Params.EpsSolvent) * CoulombKcal * sum
	return res, nil
}

func copyAccum(dst, src *bornAccum) {
	copy(dst.nodeS, src.nodeS)
	copy(dst.nodeG, src.nodeG)
	copy(dst.nodeH, src.nodeH)
	copy(dst.atomS, src.atomS)
}

// moved returns the system rigidly moved by tr: positions, both trees and
// the surface transformed in O(n) with no rebuild, and the surface moments
// rotated with the pose. Node indices, leaf lists and Mol are shared with
// s; the kernels read the moved positions from atomPos, the atom records
// rebuilt from it and the moved surface, never from Mol.
func (s *System) moved(tr geom.Transform) (*System, error) {
	m := *s
	m.atomPos = make([]geom.Vec3, len(s.atomPos))
	for i, p := range s.atomPos {
		m.atomPos[i] = tr.Apply(p)
	}
	var err error
	if m.TA, err = s.TA.Transformed(tr, m.atomPos); err != nil {
		return nil, err
	}
	m.atomRecs = m.records()
	m.Surf = s.Surf.ApplyTransform(tr)
	m.qPos = m.Surf.Positions()
	if m.TQ, err = s.TQ.Transformed(tr, m.qPos); err != nil {
		return nil, err
	}
	m.nodeNormal = make([]geom.Vec3, len(s.nodeNormal))
	for i, n := range s.nodeNormal {
		m.nodeNormal[i] = tr.ApplyVector(n)
	}
	m.nodeMoment = make([]geom.Mat3, len(s.nodeMoment))
	for i := range s.nodeMoment {
		// T' = R T Rᵀ (both the normal and the offset rotate).
		m.nodeMoment[i] = tr.R.Mul(s.nodeMoment[i]).Mul(tr.R.Transpose())
	}
	if s.nodeMoment2 != nil {
		// S'[i] = Σ_a R[i][a]·(R S[a] Rᵀ): the normal component mixes
		// through R while each offset pair rotates like a Mat3.
		m.nodeMoment2 = make([]bornMom2, len(s.nodeMoment2))
		for n := range s.nodeMoment2 {
			var w bornMom2
			for a := 0; a < 3; a++ {
				w[a] = tr.R.Mul(s.nodeMoment2[n][a]).Mul(tr.R.Transpose())
			}
			for i := 0; i < 3; i++ {
				for t := 0; t < 9; t++ {
					m.nodeMoment2[n][i][t] = tr.R[3*i]*w[0][t] + tr.R[3*i+1]*w[1][t] + tr.R[3*i+2]*w[2][t]
				}
			}
		}
	}
	return &m, nil
}
