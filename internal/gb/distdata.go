package gb

import (
	"errors"
	"fmt"
	"math"
	"time"

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
// atoms view with its own T_A. Any rank can rebuild any segment from the
// replicated molecule — the simulated analogue of re-reading a lost
// rank's input from disk, which is what makes the adoption recovery below
// possible.
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

// distSegRadii computes atom segment seg's Born radii against every
// quadrature segment, all rebuilt from replicated input, and returns
// them as (global atom index, radius) pairs. This is the adoption path a
// survivor runs for a dead rank's segment; ops are charged to the
// adopter.
func (s *System) distSegRadii(P, seg int, ops *int64) []float64 {
	a := s.distAtomSeg(P, seg)
	acc := a.newBornAccum()
	for q := 0; q < P; q++ {
		*ops += a.withSurfaceOf(s.distQSeg(P, q)).approxAllIntegrals(acc)
	}
	radii := make([]float64, a.NumAtoms())
	*ops += a.PushIntegralsToAtoms(acc, 0, len(radii), radii)
	return s.radiusPairs(P, seg, radii)
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

// distSegEnergy computes segment vSeg's V-side energy — own×own plus every
// cross direction U→vSeg — entirely locally from the full radii vector.
// Coverage matches the ring protocol: each ordered cross pair is
// produced exactly once as long as every segment has exactly one owner.
func (s *System) distSegEnergy(P, vSeg int, radiiFull []float64, rmin, rmax float64, ops *int64) float64 {
	withRadii := func(seg int) (*System, *epolAggregates) {
		a := s.distAtomSeg(P, seg)
		alo, ahi := segment(s.NumAtoms(), P, seg)
		radii := make([]float64, 0, ahi-alo)
		for _, ai := range s.TA.Items[alo:ahi] {
			radii = append(radii, radiiFull[ai])
		}
		return a, a.buildEpolAggregatesRange(radii, rmin, rmax)
	}
	v, vAgg := withRadii(vSeg)
	sc := newEpolScratch(vAgg.M)
	partial := segEpol(0, ops, sc, v, vAgg, v, vAgg)
	for u := 0; u < P; u++ {
		if u != vSeg {
			us, uAgg := withRadii(u)
			partial = segEpol(partial, ops, sc, us, uAgg, v, vAgg)
		}
	}
	return partial
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

// segOwner maps a data segment to the live rank that computes for it: a
// live rank owns its own segment; a lost rank's segment is adopted by a
// survivor chosen round-robin over the agreed live set.
func segOwner(segRank int, lost, live []int) int {
	for i, d := range lost {
		if d == segRank {
			return live[i%len(live)]
		}
	}
	return segRank
}

// distRecvDeadline bounds how long a fault-tolerant ring round waits for
// a peer's segment before rebuilding it locally. Timing out early is safe
// (the rebuild is exact), just wasted compute.
const distRecvDeadline = 2 * time.Second

// RunMPIDistributedData computes Epol with both data AND computation
// distributed over P ranks: per-rank memory is O(data/P) plus one
// transient remote segment, at the cost of P−1 ring-exchange rounds per
// phase and a slightly different (multi-tree) decomposition.
func (s *System) RunMPIDistributedData(P int) (*Result, error) {
	return s.runDistData(P, nil)
}

// RunMPIDistributedDataWithFaults is RunMPIDistributedData under fault
// injection. Dropped ring messages are retried with backoff; a dead
// peer's quadrature segment is rebuilt locally from the replicated input;
// a dead rank's atom segment is adopted by a survivor that recomputes its
// radii; and the energy phase either re-assigns dead owners' segments
// (Recover) or reports the partial energy with a rigorous ErrorBound
// (Degrade).
func (s *System) RunMPIDistributedDataWithFaults(P int, cfg *FaultConfig) (*Result, error) {
	return s.runDistData(P, cfg)
}

func (s *System) runDistData(P int, cfg *FaultConfig) (*Result, error) {
	if P < 1 {
		return nil, fmt.Errorf("%w: processes P=%d must be positive", ErrInvalidLayout, P)
	}
	if P > s.NumAtoms() || P > s.NumQPoints() {
		return nil, fmt.Errorf("%w: P=%d exceeds the %d atoms / %d quadrature points to distribute",
			ErrInvalidLayout, P, s.NumAtoms(), s.NumQPoints())
	}
	sw := perf.StartTimer()
	perCoreOps := make([]int64, P)
	ft := cfg.active()

	type rankOutcome struct {
		done      bool
		energy    float64
		radii     []float64
		degraded  bool
		bound     float64
		recovered bool
	}
	outs := make([]rankOutcome, P)

	traffic, err := simmpi.RunPlan(P, cfg.plan(), func(c *simmpi.Comm) error {
		rank := c.Rank()
		var lost, live []int
		recovered := false
		if ft {
			var err error
			if lost, err = agreeLost(c); err != nil {
				return err
			}
			live = liveRanksOf(P, lost)
		}

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
		for round := 1; round < P && P > 1; round++ {
			dst := (rank + round) % P
			src := (rank - round + P) % P
			if !ft {
				if err := c.Send(dst, ownQEnc); err != nil {
					return err
				}
				data, err := c.Recv(src)
				if err != nil {
					return err
				}
				process(s.decodeQ(data)) // transient
				continue
			}
			// Fault-tolerant ring round: retry dropped sends with backoff;
			// a dead destination just misses a segment it can rebuild; a
			// dead, exhausted, or too-slow source's segment is rebuilt here.
			if err := sendRetry(c, dst, ownQEnc); err != nil {
				var lostErr *simmpi.RankLostError
				if !errors.As(err, &lostErr) && !errors.Is(err, simmpi.ErrDropped) {
					return err
				}
			}
			data, err := c.RecvTimeout(src, distRecvDeadline)
			if err != nil {
				// A corrupted segment (checksum mismatch) is handled exactly
				// like a lost or too-slow source: the data is shared, so the
				// receiver rebuilds the segment locally instead of trusting
				// damaged floats.
				var lostErr *simmpi.RankLostError
				if !errors.As(err, &lostErr) && !errors.Is(err, simmpi.ErrTimeout) &&
					!errors.Is(err, simmpi.ErrCorrupt) {
					return err
				}
				process(s.distQSeg(P, src))
				recovered = true
				continue
			}
			process(s.decodeQ(data))
		}

		// Push integrals over the LOCAL tree.
		radii := make([]float64, aseg.NumAtoms())
		perCoreOps[rank] += aseg.PushIntegralsToAtoms(acc, 0, len(radii), radii)
		ownPairs := s.radiusPairs(P, rank, radii)

		radiiFull := make([]float64, s.NumAtoms())
		if !ft {
			// Publish radii so the master can assemble the full vector.
			all, err := c.Allgatherv(ownPairs)
			if err != nil {
				return err
			}
			if rank == 0 {
				for i := 0; i+1 < len(all); i += 2 {
					radiiFull[int(all[i])] = all[i+1]
				}
			}
		} else {
			// Heal loop: survivors adopt dead ranks' segments (recomputing
			// their radii from replicated input), the pairs gather repeats
			// until membership is stable, and EVERY rank assembles the full
			// vector — the energy phase reconstructs segments from it.
			for iter := 0; ; iter++ {
				if iter > P {
					return fmt.Errorf("gb: distdata radii heal did not converge")
				}
				if err := c.Tick(); err != nil {
					return err
				}
				// Own segment plus up to len(lost) adopted segments of
				// comparable size.
				//lint:ignore hotalloc collective payload: simmpi slots retain the contributed slice, so each heal round needs a fresh buffer
				flat := make([]float64, 0, len(ownPairs)*(1+len(lost)))
				flat = append(flat, ownPairs...)
				for i, d := range lost {
					if live[i%len(live)] == rank {
						flat = append(flat, s.distSegRadii(P, d, &perCoreOps[rank])...)
					}
				}
				all, err := c.Allgatherv(flat)
				if err != nil {
					return err
				}
				newLost, err := agreeLost(c)
				if err != nil {
					return err
				}
				if !equalInts(newLost, lost) {
					lost, live = newLost, liveRanksOf(P, newLost)
					recovered = true
					continue
				}
				if len(lost) > 0 {
					recovered = true
				}
				for i := 0; i+1 < len(all); i += 2 {
					radiiFull[int(all[i])] = all[i+1]
				}
				break
			}
		}

		// ---- Epol phase: shared radius-class range ----------------------
		var rmin, rmax float64
		if !ft {
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
			rmin, rmax = mins[0], maxs[0]
		} else {
			// The full vector is local under the fault-tolerant protocol;
			// the range needs no collective (and no dead-rank gap).
			rmin, rmax = math.Inf(1), math.Inf(-1)
			for _, r := range radiiFull {
				rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
			}
		}

		energy := 0.0
		degraded := false
		bound := 0.0
		if !ft {
			ownAEnc := encodeA(aseg, radii)
			ownAgg := aseg.buildEpolAggregatesRange(radii, rmin, rmax)
			sc := newEpolScratch(ownAgg.M)
			// Own × own (ordered pairs within the segment).
			partial := segEpol(0, &perCoreOps[rank], sc, aseg, ownAgg, aseg, ownAgg)
			// Own × every remote segment: each rank computes the ordered
			// pairs (remote atom, own atom) with U the remote tree and V its
			// own leaves; over all ranks every cross ordered pair is counted
			// once. Ordered pairs in one direction only: remote→own. The
			// opposite direction is produced by the remote rank's round
			// against us, so no doubling here.
			for round := 1; round < P && P > 1; round++ {
				dst := (rank + round) % P
				src := (rank - round + P) % P
				if err := c.Send(dst, ownAEnc); err != nil {
					return err
				}
				data, err := c.Recv(src)
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
			energy = -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum[0]
		} else {
			// Fault-tolerant energy phase: every segment (dead owners
			// included) is assigned to exactly one live rank, which
			// reconstructs the segments it needs from the full radii vector.
			// No ring traffic — deaths cannot corrupt pair coverage, and
			// the heal loop below re-assigns on further losses.
			for iter := 0; ; iter++ {
				if iter > P {
					return fmt.Errorf("gb: distdata energy heal did not converge")
				}
				if err := c.Tick(); err != nil {
					return err
				}
				partial := 0.0
				for seg := 0; seg < P; seg++ {
					if segOwner(seg, lost, live) == rank {
						partial += s.distSegEnergy(P, seg, radiiFull, rmin, rmax, &perCoreOps[rank])
					}
				}
				//lint:ignore hotalloc single-element reduce operand; simmpi slots retain it, so each heal round contributes a fresh slice
				sum, err := c.Allreduce([]float64{partial}, simmpi.Sum)
				if err != nil {
					return err
				}
				newLost, err := agreeLost(c)
				if err != nil {
					return err
				}
				if equalInts(newLost, lost) {
					energy = -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum[0]
					break
				}
				if cfg.Policy == Recover {
					lost, live = newLost, liveRanksOf(P, newLost)
					recovered = true
					continue
				}
				// Degrade: bound the V-side energy mass of every segment the
				// newly dead ranks owned this iteration.
				var deadAtoms []int32
				j := 0
				for _, d := range newLost {
					for j < len(lost) && lost[j] < d {
						j++
					}
					if j < len(lost) && lost[j] == d {
						continue
					}
					for seg := 0; seg < P; seg++ {
						if segOwner(seg, lost, live) == d {
							alo, ahi := segment(s.NumAtoms(), P, seg)
							//lint:ignore hotalloc cold degrade path; the adopted-atom count is unknown until the ownership walk completes
							deadAtoms = append(deadAtoms, s.TA.Items[alo:ahi]...)
						}
					}
				}
				energy = -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum[0]
				bound = s.degradedBound(deadAtoms)
				degraded = true
				break
			}
		}

		out := &outs[rank]
		out.energy = energy
		out.radii = radiiFull
		out.degraded = degraded
		out.bound = bound
		out.recovered = recovered
		out.done = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	winner := -1
	for r := 0; r < P; r++ {
		if outs[r].done {
			winner = r
			break
		}
	}
	if winner < 0 {
		return nil, fmt.Errorf("gb: no rank survived the run (lost ranks %v)", traffic.LostRanks)
	}
	w := &outs[winner]
	return &Result{
		Epol: w.energy, Born: w.radii,
		Processes: P, ThreadsPerProcess: 1,
		PerCoreOps: perCoreOps,
		Traffic:    traffic,
		Wall:       sw.Elapsed(),
		Degraded:   w.degraded,
		ErrorBound: w.bound,
		LostRanks:  traffic.LostRanks,
		Recovered:  w.recovered,
	}, nil
}
