package gb

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/perf"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
)

// This file implements the paper's second proposed extension
// (Conclusion: "Distributing data as well as computation is also an
// interesting approach to explore"): instead of every rank replicating
// the whole molecule (§IV-A), each rank owns one atom segment and one
// quadrature segment, builds octrees over just its data, and the
// segments' serialized tree bundles circulate through a ring — every
// rank holds at most its own bundle plus ONE remote bundle at a time, so
// per-rank memory drops from O(data) to O(data/P).
//
// The price is a different decomposition (P local trees instead of one
// global tree), so the realized approximation differs slightly from the
// shared-data drivers while staying inside the same ε error band, and
// the interconnect carries the bundles (P−1 rounds of point-to-point
// traffic priced by the performance model).

// qBundle is a serializable quadrature segment: its octree plus point
// data and far-field aggregates.
type qBundle struct {
	tree     *octree.Tree
	pts      []surface.QPoint
	normals  []geom.Vec3
	moments  []geom.Mat3
	moments2 []bornMom2 // nil below OrderQuadrupole
}

// aBundle is a serializable atom segment: its octree plus atom data,
// radii and energy aggregates.
type aBundle struct {
	tree   *octree.Tree
	pos    []geom.Vec3
	charge []float64
	radii  []float64
}

// buildQBundle constructs the quadrature bundle for a point subset at
// far-field expansion order ord.
func buildQBundle(pts []surface.QPoint, leafSize, ord int) *qBundle {
	pos := make([]geom.Vec3, len(pts))
	for i, q := range pts {
		pos[i] = q.Pos
	}
	b := &qBundle{tree: octree.Build(pos, leafSize), pts: pts}
	b.normals = make([]geom.Vec3, b.tree.NumNodes())
	b.moments = make([]geom.Mat3, b.tree.NumNodes())
	for i := b.tree.NumNodes() - 1; i >= 0; i-- {
		n := &b.tree.Nodes[i]
		if n.Leaf {
			var sum geom.Vec3
			var mom geom.Mat3
			for _, it := range b.tree.ItemsOf(int32(i)) {
				q := &pts[it]
				wn := q.Normal.Scale(q.Weight)
				sum = sum.Add(wn)
				addOuter(&mom, wn, q.Pos.Sub(n.Center))
			}
			b.normals[i] = sum
			b.moments[i] = mom
			continue
		}
		var sum geom.Vec3
		var mom geom.Mat3
		for _, c := range n.Children {
			if c == octree.NoChild {
				continue
			}
			sum = sum.Add(b.normals[c])
			shift := b.tree.Nodes[c].Center.Sub(n.Center)
			for k := 0; k < 9; k++ {
				mom[k] += b.moments[c][k]
			}
			addOuter(&mom, b.normals[c], shift)
		}
		b.normals[i] = sum
		b.moments[i] = mom
	}
	if ord == OrderQuadrupole {
		b.moments2 = buildQuadMoments(b.tree, pts, b.normals, b.moments)
	}
	return b
}

// encodeQ serializes the bundle's point data (the tree is rebuilt on the
// receiving side from the spatially sorted points, which is cheap and
// avoids shipping node arrays). Layout: n, then per point
// (pos3, normal3, weight).
func (b *qBundle) encode() []float64 {
	out := make([]float64, 0, 1+7*len(b.pts))
	out = append(out, float64(len(b.pts)))
	// Ship points in octree item order: the receiver's rebuild then sees
	// pre-sorted input and the bundles stay deterministic.
	for _, it := range b.tree.Items {
		q := b.pts[it]
		out = append(out, q.Pos.X, q.Pos.Y, q.Pos.Z,
			q.Normal.X, q.Normal.Y, q.Normal.Z, q.Weight)
	}
	return out
}

func decodeQ(data []float64, leafSize, ord int) *qBundle {
	n := int(data[0])
	pts := make([]surface.QPoint, n)
	for i := 0; i < n; i++ {
		f := data[1+7*i:]
		pts[i] = surface.QPoint{
			Pos:    geom.V(f[0], f[1], f[2]),
			Normal: geom.V(f[3], f[4], f[5]),
			Weight: f[6],
		}
	}
	return buildQBundle(pts, leafSize, ord)
}

// buildABundle constructs the atom bundle for an atom subset.
func buildABundle(pos []geom.Vec3, charge, radii []float64, leafSize int) *aBundle {
	return &aBundle{
		tree: octree.Build(pos, leafSize),
		pos:  pos, charge: charge, radii: radii,
	}
}

// encode layout: n, then per atom (pos3, charge, radius).
func (b *aBundle) encode() []float64 {
	out := make([]float64, 0, 1+5*len(b.pos))
	out = append(out, float64(len(b.pos)))
	for _, it := range b.tree.Items {
		out = append(out, b.pos[it].X, b.pos[it].Y, b.pos[it].Z,
			b.charge[it], b.radii[it])
	}
	return out
}

func decodeA(data []float64, leafSize int) *aBundle {
	n := int(data[0])
	pos := make([]geom.Vec3, n)
	charge := make([]float64, n)
	radii := make([]float64, n)
	for i := 0; i < n; i++ {
		f := data[1+5*i:]
		pos[i] = geom.V(f[0], f[1], f[2])
		charge[i] = f[3]
		radii[i] = f[4]
	}
	return buildABundle(pos, charge, radii, leafSize)
}

// distAtomSeg is one rank's atom segment (global octree item order). Any
// rank can rebuild any segment from the replicated molecule — the
// simulated analogue of re-reading a lost rank's input from disk, which
// is what makes the adoption recovery below possible.
type distAtomSeg struct {
	idx       []int32
	pos       []geom.Vec3
	charge    []float64
	intrinsic []float64
}

func (s *System) distAtomSeg(P, rank int) *distAtomSeg {
	alo, ahi := segment(s.NumAtoms(), P, rank)
	seg := &distAtomSeg{
		idx:       make([]int32, 0, ahi-alo),
		pos:       make([]geom.Vec3, 0, ahi-alo),
		charge:    make([]float64, 0, ahi-alo),
		intrinsic: make([]float64, 0, ahi-alo),
	}
	for p := alo; p < ahi; p++ {
		ai := s.TA.Items[p]
		seg.idx = append(seg.idx, ai)
		seg.pos = append(seg.pos, s.atomPos[ai])
		seg.charge = append(seg.charge, s.Mol.Atoms[ai].Charge)
		seg.intrinsic = append(seg.intrinsic, s.Mol.Atoms[ai].Radius)
	}
	return seg
}

// distQSeg rebuilds rank's quadrature-segment bundle from the replicated
// surface data.
func (s *System) distQSeg(P, rank int) *qBundle {
	qlo, qhi := segment(s.NumQPoints(), P, rank)
	pts := make([]surface.QPoint, 0, qhi-qlo)
	for p := qlo; p < qhi; p++ {
		pts = append(pts, s.Surf.Points[s.TQ.Items[p]])
	}
	return buildQBundle(pts, s.Params.LeafQPoints, s.order())
}

// distABundle reconstructs a segment's atom bundle from the full radii
// vector — how the fault-tolerant energy phase resurrects a dead rank's
// bundle without its owner.
func (s *System) distABundle(P, segRank int, radiiFull []float64) *aBundle {
	seg := s.distAtomSeg(P, segRank)
	radii := make([]float64, len(seg.idx))
	for k, ai := range seg.idx {
		radii[k] = radiiFull[ai]
	}
	return buildABundle(seg.pos, seg.charge, radii, s.Params.LeafAtoms)
}

// distSegRadii computes segment segRank's Born radii entirely locally —
// its atoms against every quadrature segment, all rebuilt from replicated
// input. This is the adoption path a survivor runs for a dead rank's
// segment. Returns (atom index, radius) pairs; ops are charged to the
// adopter.
func (s *System) distSegRadii(P, segRank int, ops *int64) []float64 {
	beta := s.bornBeta()
	ord := s.order()
	r4 := s.Params.Integral == IntegralR4
	seg := s.distAtomSeg(P, segRank)
	atomTree := octree.Build(seg.pos, s.Params.LeafAtoms)
	acc := &bornAccum{
		nodeS: make([]float64, atomTree.NumNodes()),
		nodeG: make([]geom.Vec3, atomTree.NumNodes()),
		atomS: make([]float64, len(seg.pos)),
	}
	if ord == OrderQuadrupole {
		acc.nodeH = make([]geom.Mat3, atomTree.NumNodes())
	}
	for q := 0; q < P; q++ {
		qb := s.distQSeg(P, q)
		//lint:ignore hotalloc one pass descriptor per remote segment, amortized over a full tree sweep
		bp := &bornPass{
			ta: atomTree, atomPos: seg.pos,
			tq: qb.tree, qpts: qb.pts,
			normals: qb.normals, moments: qb.moments, moments2: qb.moments2,
			beta: beta, ord: ord, r4: r4,
		}
		for _, ql := range qb.tree.Leaves() {
			*ops += bp.run(atomTree.Root(), ql, acc)
		}
	}
	radii := make([]float64, len(seg.pos))
	*ops += pushLocal(atomTree, seg.pos, seg.intrinsic, acc, radii, r4)
	pairs := make([]float64, 0, 2*len(radii))
	for k, r := range radii {
		pairs = append(pairs, float64(seg.idx[k]), r)
	}
	return pairs
}

// distSegEnergy computes segment vSeg's V-side energy — own×own plus
// every cross direction U→vSeg — entirely locally from the full radii
// vector. Coverage matches the ring protocol: each ordered cross pair is
// produced exactly once as long as every segment has exactly one owner.
func (s *System) distSegEnergy(P, vSeg int, radiiFull []float64, rmin, rmax float64, ops *int64) float64 {
	factor := s.epolFactor()
	vb := s.distABundle(P, vSeg, radiiFull)
	vView, vAgg := bundleView(s.Params, vb, rmin, rmax)
	partial := 0.0
	for _, v := range vb.tree.Leaves() {
		vs, vops := vView.approxEpol(vb.tree.Root(), v, vb.radii, vAgg, factor, wholeTree(vb.tree), nil)
		partial += vs
		*ops += vops
	}
	for u := 0; u < P; u++ {
		if u == vSeg {
			continue
		}
		ub := s.distABundle(P, u, radiiFull)
		uView, uAgg := bundleView(s.Params, ub, rmin, rmax)
		//lint:ignore hotalloc one pass descriptor per remote segment, amortized over a full tree sweep
		ep := &epolCrossPass{
			u: uView, uAgg: uAgg, uRadii: ub.radii,
			v: vView, vAgg: vAgg, vRadii: vb.radii,
			factor: factor,
		}
		for _, v := range vb.tree.Leaves() {
			vs, vops := ep.run(ub.tree.Root(), v)
			partial += vs
			*ops += vops
		}
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
// a peer's bundle before rebuilding it locally. Timing out early is safe
// (the rebuild is exact), just wasted compute.
const distRecvDeadline = 2 * time.Second

// RunMPIDistributedData computes Epol with both data AND computation
// distributed over P ranks: per-rank memory is O(data/P) plus one
// transient remote bundle, at the cost of P−1 ring-exchange rounds per
// phase and a slightly different (multi-tree) decomposition.
func (s *System) RunMPIDistributedData(P int) (*Result, error) {
	return s.runDistData(P, nil)
}

// RunMPIDistributedDataWithFaults is RunMPIDistributedData under fault
// injection. Dropped ring messages are retried with backoff; a dead
// peer's quadrature bundle is rebuilt locally from the replicated input;
// a dead rank's atom segment is adopted by a survivor that recomputes its
// radii; and the energy phase either re-assigns dead owners' segments
// (Recover) or reports the partial energy with a rigorous ErrorBound
// (Degrade).
func (s *System) RunMPIDistributedDataWithFaults(P int, cfg *FaultConfig) (*Result, error) {
	return s.runDistData(P, cfg)
}

func (s *System) runDistData(P int, cfg *FaultConfig) (*Result, error) {
	if P < 1 {
		return nil, fmt.Errorf("gb: invalid layout: processes P=%d must be positive", P)
	}
	if P > s.NumAtoms() || P > s.NumQPoints() {
		return nil, fmt.Errorf("gb: invalid layout: P=%d exceeds the %d atoms / %d quadrature points to distribute",
			P, s.NumAtoms(), s.NumQPoints())
	}
	sw := perf.StartTimer()
	perCoreOps := make([]int64, P)
	beta := s.bornBeta()
	ord := s.order()
	r4 := s.Params.Integral == IntegralR4
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
		qb := s.distQSeg(P, rank)
		ownQEnc := qb.encode()

		// ---- Born phase: own atoms × all quadrature segments ------------
		atomTree := octree.Build(aseg.pos, s.Params.LeafAtoms)
		acc := &bornAccum{
			nodeS: make([]float64, atomTree.NumNodes()),
			nodeG: make([]geom.Vec3, atomTree.NumNodes()),
			atomS: make([]float64, len(aseg.pos)),
		}
		if ord == OrderQuadrupole {
			acc.nodeH = make([]geom.Mat3, atomTree.NumNodes())
		}
		process := func(b *qBundle) {
			bp := &bornPass{
				ta: atomTree, atomPos: aseg.pos,
				tq: b.tree, qpts: b.pts,
				normals: b.normals, moments: b.moments, moments2: b.moments2,
				beta: beta, ord: ord, r4: r4,
			}
			for _, q := range b.tree.Leaves() {
				perCoreOps[rank] += bp.run(atomTree.Root(), q, acc)
			}
		}
		process(qb)
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
				process(decodeQ(data, s.Params.LeafQPoints, ord)) // transient
				continue
			}
			// Fault-tolerant ring round: retry dropped sends with backoff;
			// a dead destination just misses a bundle it can rebuild; a
			// dead, exhausted, or too-slow source's bundle is rebuilt here.
			if err := sendRetry(c, dst, ownQEnc, cfg); err != nil {
				var lostErr *simmpi.RankLostError
				if !errors.As(err, &lostErr) && !errors.Is(err, simmpi.ErrDropped) {
					return err
				}
			}
			data, err := c.RecvTimeout(src, distRecvDeadline)
			if err != nil {
				// A corrupted bundle (checksum mismatch) is handled exactly
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
			process(decodeQ(data, s.Params.LeafQPoints, ord))
		}

		// Push integrals over the LOCAL tree.
		radii := make([]float64, len(aseg.pos))
		perCoreOps[rank] += pushLocal(atomTree, aseg.pos, aseg.intrinsic, acc, radii, r4)

		ownPairs := make([]float64, 0, 2*len(radii))
		for k, r := range radii {
			ownPairs = append(ownPairs, float64(aseg.idx[k]), r)
		}

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
			// vector — the energy phase reconstructs bundles from it.
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
			ab := buildABundle(aseg.pos, aseg.charge, radii, s.Params.LeafAtoms)
			ownAEnc := ab.encode()
			ownView, ownAgg := bundleView(s.Params, ab, rmin, rmax)

			factor := s.epolFactor()
			partial := 0.0
			// Own × own (ordered pairs within the segment).
			for _, v := range ab.tree.Leaves() {
				vs, vops := ownView.approxEpol(ab.tree.Root(), v, ab.radii, ownAgg, factor, wholeTree(ab.tree), nil)
				partial += vs
				perCoreOps[rank] += vops
			}
			// Own × every remote segment: each rank computes the ordered
			// pairs (remote atom, own atom) with U the remote tree and V its
			// own leaves; over all ranks every cross ordered pair is counted
			// once.
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
				remote := decodeA(data, s.Params.LeafAtoms)
				remView, remAgg := bundleView(s.Params, remote, rmin, rmax)
				//lint:ignore hotalloc one pass descriptor per received bundle, amortized over a full tree sweep
				ep := &epolCrossPass{
					u: remView, uAgg: remAgg, uRadii: remote.radii,
					v: ownView, vAgg: ownAgg, vRadii: ab.radii,
					factor: factor,
				}
				for _, v := range ab.tree.Leaves() {
					vs, vops := ep.run(remote.tree.Root(), v)
					// Ordered pairs in one direction only: remote→own. The
					// opposite direction is produced by the remote rank's
					// round against us, so no doubling here.
					partial += vs
					perCoreOps[rank] += vops
				}
			}
			sum, err := c.Allreduce([]float64{partial}, simmpi.Sum)
			if err != nil {
				return err
			}
			energy = -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum[0]
		} else {
			// Fault-tolerant energy phase: every segment (dead owners
			// included) is assigned to exactly one live rank, which
			// reconstructs the bundles it needs from the full radii vector.
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

// pushLocal is PUSH-INTEGRALS over a standalone segment tree. The
// quadratic carry mirrors System.pushIntegrals: the Hessian branches are
// guarded on acc.nodeH so the p≤1 arithmetic is untouched.
func pushLocal(tree *octree.Tree, pos []geom.Vec3, intrinsic []float64,
	acc *bornAccum, radii []float64, r4 bool) int64 {
	var walk func(a int32, carryS float64, carryG geom.Vec3, carryH geom.Mat3) int64
	walk = func(a int32, carryS float64, carryG geom.Vec3, carryH geom.Mat3) int64 {
		n := &tree.Nodes[a]
		carryS += acc.nodeS[a]
		carryG = carryG.Add(acc.nodeG[a])
		if acc.nodeH != nil {
			for t := 0; t < 9; t++ {
				carryH[t] += acc.nodeH[a][t]
			}
		}
		if n.Leaf {
			for _, it := range tree.ItemsOf(a) {
				xi := pos[it].Sub(n.Center)
				v := acc.atomS[it] + carryS + carryG.Dot(xi)
				if acc.nodeH != nil {
					v += 0.5 * xi.Dot(carryH.MulVec(xi))
				}
				if r4 {
					radii[it] = bornRadiusFromIntegralR4(v, intrinsic[it])
				} else {
					radii[it] = bornRadiusFromIntegral(v, intrinsic[it])
				}
			}
			return 1
		}
		ops := int64(1)
		for _, ch := range n.Children {
			if ch != octree.NoChild {
				shift := tree.Nodes[ch].Center.Sub(n.Center)
				cs := carryS + carryG.Dot(shift)
				cg := carryG
				if acc.nodeH != nil {
					hs := carryH.MulVec(shift)
					cs += 0.5 * shift.Dot(hs)
					cg = cg.Add(hs)
				}
				ops += walk(ch, cs, cg, carryH)
			}
		}
		return ops
	}
	return walk(tree.Root(), 0, geom.Vec3{}, geom.Mat3{})
}

// bundleView wraps an atom bundle as the minimal System view the energy
// traversals need (they read Mol.Atoms[i].Charge and atomPos), with
// aggregates over the shared radius range.
func bundleView(params Params, b *aBundle, rmin, rmax float64) (*System, *epolAggregates) {
	atoms := make([]molecule.Atom, len(b.pos))
	for i := range atoms {
		atoms[i] = molecule.Atom{Pos: b.pos[i], Radius: 1, Charge: b.charge[i]}
	}
	view := &System{
		Params:  params,
		Mol:     &molecule.Molecule{Name: "segment", Atoms: atoms},
		TA:      b.tree,
		atomPos: b.pos,
	}
	agg := view.buildEpolAggregatesRange(b.radii, rmin, rmax)
	return view, agg
}
