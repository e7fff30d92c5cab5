package gb

import (
	"fmt"
	"runtime"

	"gbpolar/internal/perf"
	"gbpolar/internal/simmpi"
)

// This file implements the extension the paper's conclusion proposes:
// "we are planning to incorporate explicit dynamic load balancing
// techniques ... to improve the performance even further" — explicit
// dynamic load balancing ACROSS ranks, on top of the within-rank work
// stealing. Rank 0 acts as a coordinator serving guided-self-scheduling
// chunks of leaf work to the compute ranks on demand, so ranks that drew
// cheap leaves ask for more instead of idling at the phase barrier.

// chunk-protocol message layout: a worker sends {workerRank}; the
// coordinator answers {lo, hi} (hi ≤ lo means "phase drained").

// gssGrant is the guided-self-scheduling grant rule: the next chunk of
// [next, total) is remaining/(2·workers) items, at least one.
func gssGrant(next, total, workers int) (lo, hi int) {
	grant := max((total-next)/(2*workers), 1)
	return next, min(next+grant, total)
}

// coordinator serves chunks of [0, total) to ranks 1..P−1 by gssGrant
// and returns when every worker has been told the phase is drained.
// Workers that die mid-phase are counted as drained so the coordinator
// cannot spin forever waiting for their requests.
func coordinate(c *simmpi.Comm, total int) error {
	workers := c.Size() - 1
	next := 0
	done := 0
	drained := make([]bool, c.Size())
	for done < workers {
		served := false
		for from := 1; from < c.Size(); from++ {
			if drained[from] {
				continue
			}
			if !c.Alive(from) {
				drained[from] = true
				done++
				served = true
				continue
			}
			if _, ok := c.TryRecv(from); !ok {
				continue
			}
			served = true
			if next >= total {
				//lint:ignore hotalloc two-word control message per protocol turn; Send copies it immediately
				if err := c.Send(from, []float64{0, 0}); err != nil { // drained
					return err
				}
				drained[from] = true
				done++
				continue
			}
			lo, hi := gssGrant(next, total, workers)
			next = hi
			//lint:ignore hotalloc two-word control message per protocol turn; Send copies it immediately
			if err := c.Send(from, []float64{float64(lo), float64(hi)}); err != nil {
				return err
			}
		}
		if !served {
			runtime.Gosched()
		}
	}
	return nil
}

// drainChunks pulls chunks from the coordinator and invokes fn on each
// until the phase is drained.
func drainChunks(c *simmpi.Comm, fn func(lo, hi int)) error {
	for {
		//lint:ignore hotalloc one-word control message per protocol turn; Send copies it immediately
		if err := c.Send(0, []float64{float64(c.Rank())}); err != nil {
			return err
		}
		resp, err := c.Recv(0)
		if err != nil {
			return err
		}
		lo, hi := int(resp[0]), int(resp[1])
		if hi <= lo {
			return nil
		}
		fn(lo, hi)
	}
}

// RunMPIDynamic is OCT_MPI with explicit dynamic load balancing across
// ranks: rank 0 coordinates, ranks 1..P−1 compute leaf chunks on demand.
// One rank is sacrificed to coordination (P must be ≥ 2); the payoff is
// that per-rank work tracks the realized leaf costs instead of the
// static segment sizes — the cross-rank analogue of the within-rank work
// stealing, and the paper's proposed future extension.
func (s *System) RunMPIDynamic(P int) (*Result, error) {
	if P < 2 {
		return nil, fmt.Errorf("gb: dynamic load balancing needs P ≥ 2 (one coordinator), got %d", P)
	}
	if P-1 > s.NumAtoms() {
		return nil, fmt.Errorf("%w: %d compute ranks exceed the %d atoms to distribute",
			ErrInvalidLayout, P-1, s.NumAtoms())
	}
	sw := perf.StartTimer()
	perCoreOps := make([]int64, P)
	radiiOut := make([]float64, s.NumAtoms())
	energy := 0.0

	traffic, err := simmpi.Run(P, func(c *simmpi.Comm) error {
		rank := c.Rank()

		// ---- Phase 1+2: Born integrals, dynamic chunks of q-leaves ----
		acc := s.newBornAccum()
		if rank == 0 {
			if err := coordinate(c, len(s.qLeaves)); err != nil {
				return err
			}
		} else {
			err := drainChunks(c, func(lo, hi int) {
				ops := int64(0)
				for _, q := range s.qLeaves[lo:hi] {
					ops += s.ApproxIntegrals(s.TA.Root(), q, acc)
				}
				perCoreOps[rank] += ops
			})
			if err != nil {
				return err
			}
		}

		// ---- Phase 3: merge partial integrals --------------------------
		merged, err := c.Allreduce(acc.encode(), simmpi.Sum)
		if err != nil {
			return err
		}
		acc.decode(merged)

		// ---- Phase 4+5: Born radii (static atom segments over the P−1
		// compute ranks — this pass is cheap and uniform) ----------------
		radii := make([]float64, s.NumAtoms())
		if rank > 0 {
			alo, ahi := segment(s.NumAtoms(), P-1, rank-1)
			perCoreOps[rank] += s.PushIntegralsToAtoms(acc, alo, ahi, radii)
			seg := make([]float64, 0, ahi-alo)
			for pos := alo; pos < ahi; pos++ {
				seg = append(seg, radii[s.TA.Items[pos]])
			}
			all, err := c.Allgatherv(seg)
			if err != nil {
				return err
			}
			for pos, r := range all {
				radii[s.TA.Items[pos]] = r
			}
		} else {
			all, err := c.Allgatherv(nil)
			if err != nil {
				return err
			}
			for pos, r := range all {
				radii[s.TA.Items[pos]] = r
			}
		}

		// ---- Phase 6: energy, dynamic chunks of atom leaves ------------
		agg := s.buildEpolAggregates(radii)
		pass := epolPass{u: s, uAgg: agg, v: s, vAgg: agg, factor: s.epolFactor(), sc: newEpolScratch(agg.M)}
		partial := 0.0
		if rank == 0 {
			if err := coordinate(c, len(s.aLeaves)); err != nil {
				return err
			}
		} else {
			err := drainChunks(c, func(lo, hi int) {
				ops := int64(0)
				for _, v := range s.aLeaves[lo:hi] {
					vs, vops := pass.leaf(v)
					partial += vs
					ops += vops
				}
				perCoreOps[rank] += ops
			})
			if err != nil {
				return err
			}
		}

		// ---- Phase 7: final reduction ----------------------------------
		sum, err := c.Allreduce([]float64{partial}, simmpi.Sum)
		if err != nil {
			return err
		}
		if rank == 0 {
			energy = -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum[0]
			copy(radiiOut, radii)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Epol: energy, Born: radiiOut,
		Processes: P, ThreadsPerProcess: 1,
		PerCoreOps: perCoreOps,
		Traffic:    traffic,
		Wall:       sw.Elapsed(),
	}, nil
}
