package gb

import (
	"fmt"
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/perf"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
)

// This file implements the paper's second proposed extension
// (Conclusion: "Distributing data as well as computation is also an
// interesting approach to explore"): instead of every rank replicating
// the whole molecule (§IV-A), each rank owns one atom segment and one
// quadrature segment, builds octrees over just its data, and the
// serialized segments circulate through a ring — every rank holds at most
// its own segments plus ONE remote segment at a time, so per-rank memory
// drops from O(data) to O(data/P).
//
// Each segment is a System view (DESIGN.md §14): an atom segment fills
// only the atoms half (setAtoms), a quadrature segment only the surface
// half (setSurface), and withSurfaceOf pairs them, so the segments run the
// same Born and energy kernels as a whole molecule.
//
// The price is a different decomposition (P local trees instead of one
// global tree), so the realized approximation differs slightly from the
// shared-data drivers while staying inside the same ε error band, and
// the interconnect carries the segments (P−1 rounds of point-to-point
// traffic priced by the performance model).

// distAtomSeg is rank's atom segment (global octree item order) as an
// atoms view with its own T_A.
func (s *System) distAtomSeg(P, rank int) *System {
	alo, ahi := segment(s.NumAtoms(), P, rank)
	atoms := make([]molecule.Atom, 0, ahi-alo)
	for _, ai := range s.TA.Items[alo:ahi] {
		atoms = append(atoms, s.Mol.Atoms[ai])
	}
	return s.atomsView(atoms)
}

// distQSeg is rank's quadrature segment as a surface view with its own
// T_Q and far-field moments, rebuilt from the replicated surface data.
func (s *System) distQSeg(P, rank int) *System {
	qlo, qhi := segment(s.NumQPoints(), P, rank)
	pts := make([]surface.QPoint, 0, qhi-qlo)
	for _, qi := range s.TQ.Items[qlo:qhi] {
		pts = append(pts, s.Surf.Points[qi])
	}
	return s.surfaceView(pts)
}

// atomsView and surfaceView are the two segment views: s's Params over
// only the atoms, or only the quadrature points, of one data segment.
func (s *System) atomsView(atoms []molecule.Atom) *System {
	v := &System{Params: s.Params}
	v.setAtoms(&molecule.Molecule{Name: "segment", Atoms: atoms})
	return v
}

func (s *System) surfaceView(pts []surface.QPoint) *System {
	v := &System{Params: s.Params}
	v.setSurface(&surface.Surface{Points: pts})
	return v
}

// encodeQ serializes a quadrature segment's points (the tree is rebuilt
// on the receiving side from the spatially sorted points, which is cheap
// and avoids shipping node arrays). Layout: n, then per point in octree
// item order (pos3, normal3, weight), so the receiver's rebuild sees
// pre-sorted input and the segments stay deterministic.
func encodeQ(q *System) []float64 {
	out := make([]float64, 0, 1+7*len(q.TQ.Items))
	out = append(out, float64(len(q.TQ.Items)))
	for _, it := range q.TQ.Items {
		p := &q.Surf.Points[it]
		out = append(out, p.Pos.X, p.Pos.Y, p.Pos.Z,
			p.Normal.X, p.Normal.Y, p.Normal.Z, p.Weight)
	}
	return out
}

func (s *System) decodeQ(data []float64) *System {
	pts := make([]surface.QPoint, int(data[0]))
	for i := range pts {
		f := data[1+7*i:]
		pts[i] = surface.QPoint{
			Pos:    geom.V(f[0], f[1], f[2]),
			Normal: geom.V(f[3], f[4], f[5]),
			Weight: f[6],
		}
	}
	return s.surfaceView(pts)
}

// encodeA serializes an atom segment with its Born radii. Layout: n, then
// per atom in octree item order (pos3, charge, radius).
func encodeA(a *System, radii []float64) []float64 {
	out := make([]float64, 0, 1+5*len(radii))
	out = append(out, float64(len(radii)))
	for _, it := range a.TA.Items {
		p := a.atomPos[it]
		out = append(out, p.X, p.Y, p.Z, a.Mol.Atoms[it].Charge, radii[it])
	}
	return out
}

// decodeA rebuilds a remote atom segment and its Born radii. The wire
// carries no intrinsic radii: the energy pass does not read them.
func (s *System) decodeA(data []float64) (*System, []float64) {
	atoms := make([]molecule.Atom, int(data[0]))
	radii := make([]float64, len(atoms))
	for i := range atoms {
		f := data[1+5*i:]
		atoms[i] = molecule.Atom{Pos: geom.V(f[0], f[1], f[2]), Charge: f[3]}
		radii[i] = f[4]
	}
	return s.atomsView(atoms), radii
}

// radiusPairs flattens segment seg's radii (segment order) into
// (global atom index, radius) pairs.
func (s *System) radiusPairs(P, seg int, radii []float64) []float64 {
	alo, _ := segment(s.NumAtoms(), P, seg)
	pairs := make([]float64, 0, 2*len(radii))
	for k, r := range radii {
		pairs = append(pairs, float64(s.TA.Items[alo+k]), r)
	}
	return pairs
}

// segEpol adds to partial, one target leaf of v at a time, the raw pair
// sum over the ordered pairs (atom of u, atom of v) of two atom segments
// whose aggregates share one radius range: an own pass when u is v, a
// cross pass otherwise (epolPass).
func segEpol(partial float64, ops *int64, sc *epolScratch, u *System, uAgg *epolAggregates,
	v *System, vAgg *epolAggregates) float64 {
	p := epolPass{u: u, uAgg: uAgg, v: v, vAgg: vAgg, factor: v.epolFactor(), sc: sc}
	for _, l := range v.aLeaves {
		ls, lops := p.leaf(l)
		partial += ls
		*ops += lops
	}
	return partial
}

// RunMPIDistributedData computes Epol with both data AND computation
// distributed over P ranks: per-rank memory is O(data/P) plus one
// transient remote segment, at the cost of P−1 ring-exchange rounds per
// phase and a slightly different (multi-tree) decomposition. It runs
// without fault injection; the fault-tolerant driver is runDistributed.
func (s *System) RunMPIDistributedData(P int) (*Result, error) {
	if P < 1 {
		return nil, fmt.Errorf("%w: processes P=%d must be positive", ErrInvalidLayout, P)
	}
	if P > s.NumAtoms() || P > s.NumQPoints() {
		return nil, fmt.Errorf("%w: P=%d exceeds the %d atoms / %d quadrature points to distribute",
			ErrInvalidLayout, P, s.NumAtoms(), s.NumQPoints())
	}
	sw := perf.StartTimer()
	perCoreOps := make([]int64, P)
	// Rank 0 assembles the radii; every rank reduces the same energy, and
	// rank 0's is the result.
	radiiFull := make([]float64, s.NumAtoms())
	var energy float64

	traffic, err := simmpi.Run(P, func(c *simmpi.Comm) error {
		rank := c.Rank()

		// ---- Own segments (in global octree item order, so segment
		// boundaries match the shared-data drivers) -----------------------
		aseg := s.distAtomSeg(P, rank)
		qseg := s.distQSeg(P, rank)
		ownQEnc := encodeQ(qseg)

		// ---- Born phase: own atoms × all quadrature segments ------------
		acc := aseg.newBornAccum()
		process := func(q *System) {
			perCoreOps[rank] += aseg.withSurfaceOf(q).approxAllIntegrals(acc)
		}
		process(qseg)
		for round := 1; round < P; round++ {
			if err := c.Send((rank+round)%P, ownQEnc); err != nil {
				return err
			}
			data, err := c.Recv((rank - round + P) % P)
			if err != nil {
				return err
			}
			process(s.decodeQ(data)) // transient
		}

		// Push integrals over the LOCAL tree, then publish the radii so
		// the master can assemble the full vector.
		radii := make([]float64, aseg.NumAtoms())
		perCoreOps[rank] += aseg.PushIntegralsToAtoms(acc, 0, len(radii), radii)
		all, err := c.Allgatherv(s.radiusPairs(P, rank, radii))
		if err != nil {
			return err
		}
		if rank == 0 {
			for i := 0; i+1 < len(all); i += 2 {
				radiiFull[int(all[i])] = all[i+1]
			}
		}

		// ---- Epol phase: shared radius-class range ----------------------
		localMin, localMax := math.Inf(1), math.Inf(-1)
		for _, r := range radii {
			localMin, localMax = math.Min(localMin, r), math.Max(localMax, r)
		}
		mins, err := c.Allreduce([]float64{localMin}, simmpi.Min)
		if err != nil {
			return err
		}
		maxs, err := c.Allreduce([]float64{localMax}, simmpi.Max)
		if err != nil {
			return err
		}
		rmin, rmax := mins[0], maxs[0]

		ownAEnc := encodeA(aseg, radii)
		ownAgg := aseg.buildEpolAggregatesRange(radii, rmin, rmax)
		sc := newEpolScratch(ownAgg.M)
		// Own × own (ordered pairs within the segment).
		partial := segEpol(0, &perCoreOps[rank], sc, aseg, ownAgg, aseg, ownAgg)
		// Own × every remote segment: each rank computes the ordered pairs
		// (remote atom, own atom) with U the remote tree and V its own
		// leaves; over all ranks every cross ordered pair is counted once.
		// Ordered pairs in one direction only: remote→own. The opposite
		// direction is produced by the remote rank's round against us, so
		// no doubling here.
		for round := 1; round < P; round++ {
			if err := c.Send((rank+round)%P, ownAEnc); err != nil {
				return err
			}
			data, err := c.Recv((rank - round + P) % P)
			if err != nil {
				return err
			}
			remote, remRadii := s.decodeA(data)
			remAgg := remote.buildEpolAggregatesRange(remRadii, rmin, rmax)
			partial = segEpol(partial, &perCoreOps[rank], sc, remote, remAgg, aseg, ownAgg)
		}
		sum, err := c.Allreduce([]float64{partial}, simmpi.Sum)
		if err != nil {
			return err
		}
		if rank == 0 {
			energy = -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum[0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Epol: energy, Born: radiiFull,
		Processes: P, ThreadsPerProcess: 1,
		PerCoreOps: perCoreOps,
		Traffic:    traffic,
		Wall:       sw.Elapsed(),
	}, nil
}
