package gb

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/simmpi"
)

// This file holds the fault-tolerance policy layer the distributed
// drivers share. The runtime half lives in internal/simmpi (deadlock-free
// collectives over the live set, health view, error returns); this half
// turns those primitives into *self-healing*:
//
//   - agreeLost: survivors agree on one identical lost-rank set through a
//     Max-allreduce of crash-observation bitmasks, so every recovery
//     decision below is derived from agreed data and all live ranks take
//     the same control-flow branch (no divergence, no deadlock);
//   - liveShare: work partitioning over the agreed live set, with
//     straggler ranks down-weighted (straggler detection with work
//     re-assignment: a slowed rank gets half a share, its siblings absorb
//     the difference);
//   - heal-by-redo: each driver phase runs in a loop — compute the share,
//     run the phase collective, re-agree; if the lost set changed during
//     the phase, the iteration's result is discarded and the phase redone
//     over the shrunk live set. Discard-and-redo makes double-counting
//     impossible: a result is only accepted when no rank died between the
//     partition decision and the post-phase agreement;
//   - sendRetry: bounded retry with exponential backoff for dropped
//     point-to-point messages (the backoff is modeled, not slept, and
//     priced by internal/perf);
//   - degradedBound: a rigorous upper bound on the |Epol| mass of the
//     pair terms a lost rank's targets produce, used by the Degrade
//     policy to return a partial energy with an honest error bar instead
//     of paying for a full phase redo.
//
// The degraded bound is honest because of two monotonicity facts: the
// clamp in bornRadiusFromIntegral guarantees every realized Born radius
// R_i ≥ ρ_i (the intrinsic radius), and f_GB(r; R_iR_j) is increasing in
// R_iR_j (d/da[a·e^{−r²/4a}] = e^{−u}(1+u) > 0 with u = r²/4a), so
// 1/f_GB evaluated at intrinsic radii dominates the magnitude of any
// realized pair term. Summing |q_i q_j|/f_GB(r²; ρ_iρ_j) over the missing
// ordered pairs therefore upper-bounds the missing energy mass,
// whatever radii the lost rank would have produced. Ownership of a
// mutually near leaf block is global (DESIGN.md §13): a lost target may
// own one ×2 that a surviving rank skipped, so a pair with one atom
// outside the lost atoms is counted in both orders.

// FaultPolicy selects how a driver responds to ranks lost mid-run.
type FaultPolicy int

const (
	// Recover re-assigns lost work to the surviving ranks and redoes the
	// affected phase until the result is complete: the returned Epol is a
	// full-accuracy answer computed by fewer ranks.
	Recover FaultPolicy = iota
	// Degrade accepts the partial energy when ranks die during the final
	// energy phase and reports an explicit ErrorBound with Degraded set on
	// the Result. The cheap prerequisite phases (integrals, Born radii)
	// are still healed — without complete radii no honest bound on the
	// energy is possible.
	Degrade
)

func (p FaultPolicy) String() string {
	if p == Degrade {
		return "degrade"
	}
	return "recover"
}

// FaultConfig configures fault injection and recovery for a distributed
// run. The zero/nil config means no injection and seed-identical
// behavior.
type FaultConfig struct {
	// Plan is the injected fault schedule; nil or empty disables the
	// fault-tolerance protocol entirely (bitwise-identical results to the
	// fault-free driver).
	Plan *fault.Plan
	// Policy selects Recover (default) or Degrade.
	Policy FaultPolicy
	// ForceProtocol runs the fault-tolerance protocol (the agreement
	// rounds and ft collectives) even with an empty Plan. A run resumed
	// from a checkpoint executes the ft protocol, so an uninterrupted
	// reference run must too for its op sequence and counter-side Summary
	// to be comparable — the resume-identity tests set this on both sides.
	ForceProtocol bool
}

// active reports whether the fault-tolerance protocol should run.
func (cfg *FaultConfig) active() bool {
	return cfg != nil && (!cfg.Plan.Empty() || cfg.ForceProtocol)
}

func (cfg *FaultConfig) plan() *fault.Plan {
	if cfg == nil {
		return nil
	}
	return cfg.Plan
}

// sendRetries bounds the re-sends of a dropped message, and
// sendBackoff is the first retry's modeled backoff, doubled per attempt.
const (
	sendRetries = 3
	sendBackoff = 50 * time.Microsecond
)

// sendRetry sends with bounded retry and exponential backoff on injected
// drops. The backoff is recorded in the traffic stats (modeled recovery
// cost), not slept. Non-drop errors (dead peer, abort) return
// immediately — retrying those cannot succeed.
func sendRetry(c *simmpi.Comm, to int, data []float64) error {
	backoff := sendBackoff
	for attempt := 0; ; attempt++ {
		err := c.Send(to, data)
		if !errors.Is(err, simmpi.ErrDropped) {
			return err
		}
		if attempt >= sendRetries {
			return fmt.Errorf("gb: send to rank %d still dropped after %d retries: %w",
				to, sendRetries, err)
		}
		c.RecordRetry(backoff)
		backoff *= 2
	}
}

// agreeLost produces one lost-rank set identical on every live rank: a
// Max-allreduce over per-rank crash-observation bitmasks. Local health
// views may lag (a crash is visible to some survivors before others);
// the union is what everyone commits to. A rank dying *during* this
// collective may be missing from the agreed set — that staleness is safe
// because every phase re-agrees after its collective and discards
// iterations whose membership changed.
func agreeLost(c *simmpi.Comm) ([]int, error) {
	mask := make([]float64, c.Size())
	for r := 0; r < c.Size(); r++ {
		if !c.Alive(r) {
			mask[r] = 1
		}
	}
	out, err := c.Allreduce(mask, simmpi.Max)
	if err != nil {
		return nil, err
	}
	lost := make([]int, 0, len(out))
	for r, v := range out {
		if v > 0 {
			lost = append(lost, r)
		}
	}
	return lost, nil
}

// liveRanksOf returns the ranks of a P-rank world not in the agreed lost
// set (which is sorted, as agreeLost produces it).
func liveRanksOf(P int, lost []int) []int {
	live := make([]int, 0, P-len(lost))
	j := 0
	for r := 0; r < P; r++ {
		if j < len(lost) && lost[j] == r {
			j++
			continue
		}
		live = append(live, r)
	}
	return live
}

// liveShare partitions n work items over the agreed live ranks and
// returns rank's half-open share. Straggler ranks (known from the fault
// plan via the health view) carry half weight, so detected-slow ranks
// shed work onto their healthy siblings. Deterministic in its inputs:
// every rank computes every other rank's share identically.
func liveShare(n int, live, stragglers []int, rank int) (lo, hi int) {
	slow := make(map[int]bool, len(stragglers))
	for _, r := range stragglers {
		slow[r] = true
	}
	weight := func(r int) int {
		if slow[r] {
			return 1
		}
		return 2
	}
	total := 0
	for _, r := range live {
		total += weight(r)
	}
	if total == 0 {
		return 0, 0
	}
	cum := 0
	for _, r := range live {
		next := cum + weight(r)
		if r == rank {
			return n * cum / total, n * next / total
		}
		cum = next
	}
	return 0, 0 // rank not in the live set: empty share
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// boundSlack pads the rigorous missing-pair bound for floating-point
// summation-order differences between the partial and the serial
// evaluation.
const boundSlack = 1.25

// degradedBound upper-bounds the |Epol| mass a lost rank's share would
// have produced, given its atoms: 0.5·τ·C·Σ_{v}[q_v²/ρ_v + Σ_{j≠v}
// w_j·|q_j q_v|/f_GB(r²; ρ_jρ_v)] at intrinsic radii ρ (see the top of
// this file). The share's targets produce the ordered terms anchored at
// its atoms and the mirror terms of the near blocks they own ×2
// (ownsNear): w_j = 2 for a partner outside the atoms, 1 inside, where
// the mirror is anchored at j itself. O(|atoms|·N) — the price of an
// honest bound.
func (s *System) degradedBound(atoms []int32) float64 {
	dead := make([]bool, s.NumAtoms())
	for _, v := range atoms {
		dead[v] = true
	}
	sum := 0.0
	for _, v := range atoms {
		qv := math.Abs(s.Mol.Atoms[v].Charge)
		pv := s.atomPos[v]
		rhoV := s.Mol.Atoms[v].Radius
		sum += qv * qv / rhoV
		for j := range s.Mol.Atoms {
			if int32(j) == v {
				continue
			}
			w := 2.0
			if dead[j] {
				w = 1
			}
			r2 := pv.Dist2(s.atomPos[j])
			sum += w * qv * math.Abs(s.Mol.Atoms[j].Charge) *
				invFGB(r2, rhoV*s.Mol.Atoms[j].Radius)
		}
	}
	return boundSlack * 0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum
}

// shareAtomsNodeNode lists the atoms inside the atom-leaf range
// [lo, hi) of s.aLeaves — the V-side atoms of a NodeNode energy share.
func (s *System) shareAtomsNodeNode(lo, hi int) []int32 {
	out := make([]int32, 0, (hi-lo)*s.Params.LeafAtoms)
	for _, v := range s.aLeaves[lo:hi] {
		out = append(out, s.TA.ItemsOf(v)...)
	}
	return out
}

// shareAtomsAtomNode lists the atoms of the octree-position range
// [lo, hi) — the V-side atoms of an AtomNode energy share.
func (s *System) shareAtomsAtomNode(lo, hi int) []int32 {
	return s.TA.Items[lo:hi]
}
