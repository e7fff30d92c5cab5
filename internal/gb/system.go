package gb

import (
	"fmt"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
)

// Division selects the paper's work-distribution scheme (§IV, "Different
// Work Distribution Approaches").
type Division int

const (
	// NodeNode divides octree leaf nodes among processes in both phases —
	// the paper's default: best time AND an approximation error that is
	// independent of the process count.
	NodeNode Division = iota
	// AtomNode divides atoms among processes: slightly slower, and the
	// error varies with the process count because division boundaries
	// split tree nodes.
	AtomNode
)

// String implements fmt.Stringer.
func (d Division) String() string {
	switch d {
	case NodeNode:
		return "node-node"
	case AtomNode:
		return "atom-node"
	}
	return fmt.Sprintf("Division(%d)", int(d))
}

// Integral selects the Born-radius surface integral.
type Integral int

const (
	// IntegralR6 is the surface-based r⁶ form (Eq. 4) — the paper's
	// contribution, more accurate for protein-like solutes (Grycuk).
	IntegralR6 Integral = iota
	// IntegralR4 is the Coulomb-field approximation (Eq. 3), kept for
	// the accuracy comparison the paper motivates in §II.
	IntegralR4
)

// String implements fmt.Stringer.
func (i Integral) String() string {
	if i == IntegralR4 {
		return "r4"
	}
	return "r6"
}

// Params are the tunables of the octree algorithms.
type Params struct {
	// EpsSolvent is the solvent dielectric of Eq. 2 (default 80).
	EpsSolvent float64
	// LeafAtoms / LeafQPoints are the octree leaf capacities.
	LeafAtoms   int
	LeafQPoints int
	// Math selects exact or approximate kernels.
	Math MathMode
	// Division selects the work-distribution scheme.
	Division Division
	// Integral selects the r⁶ (default) or r⁴ Born-radius form.
	Integral Integral
	// Accuracy is the work/precision spec (eps pair, bin width,
	// quadrature order, expansion order). The zero value resolves to
	// DefaultAccuracy. NewSystem normalizes: after construction the
	// Accuracy field is always populated.
	Accuracy Accuracy
}

// DefaultParams returns the paper's benchmark configuration: ε = 0.9 for
// both phases (DefaultAccuracy), node–node division, exact math.
func DefaultParams() Params {
	return Params{
		EpsSolvent:  DefaultSolventDielectric,
		LeafAtoms:   8,
		LeafQPoints: 32,
		Math:        ExactMath,
		Division:    NodeNode,
		Accuracy:    DefaultAccuracy(),
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.EpsSolvent <= 1 {
		return fmt.Errorf("gb: solvent dielectric %v must exceed 1", p.EpsSolvent)
	}
	if err := p.Accuracy.Validate(); err != nil {
		return err
	}
	if p.LeafAtoms < 1 || p.LeafQPoints < 1 {
		return fmt.Errorf("gb: leaf capacities must be ≥ 1")
	}
	return nil
}

// System is a prepared molecule: positions, charges, surface quadrature
// points and the two octrees T_A (atoms) and T_Q (quadrature points). A
// System is immutable after construction and safe for concurrent use by
// any number of ranks/threads — the paper's compute nodes each build the
// same octrees (Fig. 4 Step 1); in-process the ranks share them read-only
// and the replication is accounted by the performance model (DESIGN.md
// §2).
//
// The Born and energy kernels walk Systems only. Complex and the
// distributed-data driver run them on views (DESIGN.md §14): System
// values that share trees and slices with other systems and fill only the
// fields their pass reads — a moved ligand, one molecule's atoms paired
// with another's surface (withSurfaceOf), or one data segment's atoms or
// quadrature points.
type System struct {
	Params Params
	Mol    *molecule.Molecule
	Surf   *surface.Surface
	TA     *octree.Tree // octree over atom centers
	TQ     *octree.Tree // octree over quadrature points

	atomPos []geom.Vec3
	qPos    []geom.Vec3
	// atomRecs holds each atom's (position, charge) in T_A item order, so
	// the atoms under a node are the contiguous range [Start, End): the
	// energy kernels read them without indirection (DESIGN.md §16).
	atomRecs []atomRec

	// Pseudo-q-point aggregates per T_Q node (Fig. 2): weighted normal
	// sums ñ = Σ w_q n_q, and the first-order normal-moment tensor
	// T = Σ w_q n_q (p_q − q̄)ᵀ about the node centroid. The tensor is
	// the Greengard–Rokhlin-style p=1 correction the far field needs:
	// a closed surface patch's weighted normals largely cancel (like the
	// charges of a neutral cluster), so the monopole ñ alone drops the
	// leading term of the r⁶ flux integral.
	nodeNormal []geom.Vec3
	nodeMoment []geom.Mat3
	// nodeMoment2 is the second-order (p=2) moment per T_Q node: the
	// rank-3 tensor S[i][jk] = Σ w_q n_i m_j m_k (m = p_q − q̄, symmetric
	// in jk), stored as three matrices indexed by the normal component.
	// Built only when the effective expansion order is OrderQuadrupole.
	nodeMoment2 []bornMom2

	// Leaf lists (deterministic order) for node-based work division.
	qLeaves []int32
	aLeaves []int32
}

// NewSystem builds the prepared system: surface octree aggregates and both
// trees. The surface must have been built from the same molecule.
func NewSystem(mol *molecule.Molecule, surf *surface.Surface, params Params) (*System, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := mol.Validate(); err != nil {
		return nil, err
	}
	if mol.NumAtoms() == 0 {
		return nil, fmt.Errorf("gb: molecule %q has no atoms", mol.Name)
	}
	if surf.NumPoints() == 0 {
		return nil, fmt.Errorf("gb: surface of %q has no quadrature points", mol.Name)
	}
	// Normalize the accuracy spec: after construction Params.Accuracy is
	// always populated, so the traversals and the tuner/serving layers
	// read the same point.
	params.Accuracy = params.EffectiveAccuracy()
	s := &System{Params: params}
	s.setAtoms(mol)
	s.setSurface(surf)
	return s, nil
}

// setAtoms installs the molecule's atoms: positions, T_A and its leaves.
// A System with atoms only is an atom-segment view of the distributed-data
// driver.
func (s *System) setAtoms(mol *molecule.Molecule) {
	s.Mol = mol
	s.atomPos = mol.Positions()
	s.TA = octree.Build(s.atomPos, s.Params.LeafAtoms)
	s.aLeaves = s.TA.Leaves()
	s.atomRecs = s.records()
}

// atomRec is one atom's energy-kernel record: 32 bytes, position first so
// a leaf's records stream through the near loop.
type atomRec struct {
	pos geom.Vec3
	q   float64
}

// records lays out the atoms' (position, charge) records in T_A item
// order, from atomPos and the molecule's charges.
func (s *System) records() []atomRec {
	out := make([]atomRec, len(s.TA.Items))
	for k, ai := range s.TA.Items {
		out[k] = atomRec{s.atomPos[ai], s.Mol.Atoms[ai].Charge}
	}
	return out
}

// atomsOf returns the atom records under node n with their Born radii
// (agg.radii is in the same item order).
func (s *System) atomsOf(n *octree.Node, agg *epolAggregates) ([]atomRec, []float64) {
	return s.atomRecs[n.Start:n.End], agg.radii[n.Start:n.End]
}

// setSurface installs the quadrature points: T_Q, its leaves and the
// far-field moments at the system's expansion order. A System with a
// surface only is a quadrature-segment view of the distributed-data
// driver.
func (s *System) setSurface(surf *surface.Surface) {
	s.Surf = surf
	s.qPos = surf.Positions()
	s.TQ = octree.Build(s.qPos, s.Params.LeafQPoints)
	s.qLeaves = s.TQ.Leaves()

	// Aggregate the weighted normal and normal-moment tensor of every
	// T_Q node bottom-up (children precede parents in reverse DFS index
	// order).
	s.nodeNormal = make([]geom.Vec3, s.TQ.NumNodes())
	s.nodeMoment = make([]geom.Mat3, s.TQ.NumNodes())
	for i := s.TQ.NumNodes() - 1; i >= 0; i-- {
		n := &s.TQ.Nodes[i]
		if n.Leaf {
			var sum geom.Vec3
			var mom geom.Mat3
			for _, it := range s.TQ.ItemsOf(int32(i)) {
				q := &surf.Points[it]
				wn := q.Normal.Scale(q.Weight)
				sum = sum.Add(wn)
				addOuter(&mom, wn, q.Pos.Sub(n.Center))
			}
			s.nodeNormal[i] = sum
			s.nodeMoment[i] = mom
			continue
		}
		var sum geom.Vec3
		var mom geom.Mat3
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			sum = sum.Add(s.nodeNormal[c])
			// Re-center the child tensor about the parent centroid:
			// T_p += T_c + ñ_c ⊗ (q̄_c − q̄_p).
			shift := s.TQ.Nodes[c].Center.Sub(n.Center)
			for k := 0; k < 9; k++ {
				mom[k] += s.nodeMoment[c][k]
			}
			addOuter(&mom, s.nodeNormal[c], shift)
		}
		s.nodeNormal[i] = sum
		s.nodeMoment[i] = mom
	}
	if s.order() == OrderQuadrupole {
		s.nodeMoment2 = buildQuadMoments(s.TQ, surf.Points, s.nodeNormal, s.nodeMoment)
	}
}

// withSurfaceOf returns a view pairing s's atoms with q's surface: the
// APPROX-INTEGRALS pass of the view accumulates q's surface flux at s's
// atoms. Trees and slices are shared, not copied.
func (s *System) withSurfaceOf(q *System) *System {
	v := *s
	v.Surf, v.TQ, v.qPos, v.qLeaves = q.Surf, q.TQ, q.qPos, q.qLeaves
	v.nodeNormal, v.nodeMoment, v.nodeMoment2 = q.nodeNormal, q.nodeMoment, q.nodeMoment2
	return &v
}

// buildQuadMoments aggregates the second-order surface moments
// S[i][jk] = Σ w_q n_i m_j m_k per node of a quadrature octree, bottom-up
// like the normal and first-moment passes. The translation of a child
// tensor to the parent centroid (m → m + s) follows from expanding the
// shifted product:
//
//	S'[i][jk] = S[i][jk] + s_j T[i][k] + s_k T[i][j] + s_j s_k ñ_i
//
// which needs the child's already-aggregated ñ and T, so the pass runs
// after (or alongside) those.
func buildQuadMoments(tree *octree.Tree, pts []surface.QPoint, normals []geom.Vec3, moments []geom.Mat3) []bornMom2 {
	m2 := make([]bornMom2, tree.NumNodes())
	for i := tree.NumNodes() - 1; i >= 0; i-- {
		n := &tree.Nodes[i]
		if n.Leaf {
			var s2 bornMom2
			for _, it := range tree.ItemsOf(int32(i)) {
				q := &pts[it]
				m := q.Pos.Sub(n.Center)
				wn := q.Normal.Scale(q.Weight)
				addOuter(&s2[0], m.Scale(wn.X), m)
				addOuter(&s2[1], m.Scale(wn.Y), m)
				addOuter(&s2[2], m.Scale(wn.Z), m)
			}
			m2[i] = s2
			continue
		}
		var s2 bornMom2
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			shift := tree.Nodes[c].Center.Sub(n.Center)
			cn := normals[c]
			cm := &moments[c]
			nvec := [3]float64{cn.X, cn.Y, cn.Z}
			for comp := 0; comp < 3; comp++ {
				dst := &s2[comp]
				src := &m2[c][comp]
				for t := 0; t < 9; t++ {
					dst[t] += src[t]
				}
				// Row comp of T is the (n_comp, m) first moment.
				row := geom.V(cm[3*comp], cm[3*comp+1], cm[3*comp+2])
				addOuter(dst, shift, row)
				addOuter(dst, row, shift)
				addOuter(dst, shift.Scale(nvec[comp]), shift)
			}
		}
		m2[i] = s2
	}
	return m2
}

// addOuter accumulates the outer product a ⊗ bᵀ into m (row-major).
func addOuter(m *geom.Mat3, a, b geom.Vec3) {
	m[0] += a.X * b.X
	m[1] += a.X * b.Y
	m[2] += a.X * b.Z
	m[3] += a.Y * b.X
	m[4] += a.Y * b.Y
	m[5] += a.Y * b.Z
	m[6] += a.Z * b.X
	m[7] += a.Z * b.Y
	m[8] += a.Z * b.Z
}

// NumAtoms returns the atom count.
func (s *System) NumAtoms() int { return s.Mol.NumAtoms() }

// NumQPoints returns the quadrature-point count.
func (s *System) NumQPoints() int { return s.Surf.NumPoints() }

// QLeaves returns the quadrature-octree leaves in work-division order.
func (s *System) QLeaves() []int32 { return s.qLeaves }

// ALeaves returns the atoms-octree leaves in work-division order.
func (s *System) ALeaves() []int32 { return s.aLeaves }

// DataBytes estimates the memory of one copy of the system's working set
// (the quantity each distributed rank replicates), for the performance
// model.
func (s *System) DataBytes() int64 {
	atoms := int64(s.NumAtoms())
	qpts := int64(s.NumQPoints())
	return atoms*(24+8+8+8+8) + qpts*(24+24+8) +
		s.TA.MemoryBytes() + s.TQ.MemoryBytes() + int64(len(s.nodeNormal))*24
}

// segment returns the half-open [lo, hi) bounds of the i-th of n equal
// segments over `total` items (the paper's "ith segment" static division).
func segment(total, n, i int) (lo, hi int) {
	lo = i * total / n
	hi = (i + 1) * total / n
	return lo, hi
}
