package gb

import (
	"math"
	"slices"

	"gbpolar/internal/fault"
)

// This file holds the fault-tolerance policy layer of runDistributed,
// the driver behind every layout. The runtime half lives in
// internal/simmpi (deadlock-free collectives over the live set,
// membership on the plan's op clock, error returns); this half turns
// those primitives into *self-healing*:
//
//   - membership: simmpi.Comm.Lost reads the lost-rank set off the fault
//     plan's op clock. Live ranks pass the same ops in the same order, so
//     every survivor holds the same set at the same program point and all
//     live ranks take the same control-flow branch (no divergence, no
//     deadlock, no agreement round). The plan is the only source of
//     crashes, which is what makes its clock ground truth;
//   - liveShare: work partitioning over the live set, with straggler
//     ranks down-weighted (straggler detection with work re-assignment: a
//     slowed rank gets half a share, its siblings absorb the difference);
//   - heal-by-redo: each driver phase runs in runDistributed's one heal
//     loop — compute the share, run the phase collective, read the
//     membership; if a rank was lost during the phase, the iteration's
//     result is discarded and the phase redone over the shrunk live set.
//     Discard-and-redo makes double-counting impossible: a result is only
//     accepted when every rank live at the partition decision contributed
//     to the phase's collective;
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
// run. Every run executes the same protocol; without a plan nothing is
// injected and no rank is ever lost, so a nil config, an empty plan and a
// Policy alone all compute the same bits.
type FaultConfig struct {
	// Plan is the injected fault schedule; nil or empty injects nothing.
	Plan *fault.Plan
	// Policy selects Recover (default) or Degrade.
	Policy FaultPolicy
	// ForceProtocol has no effect: every run executes the one protocol.
	// It remains so that existing callers keep compiling.
	ForceProtocol bool
}

// liveRanksOf returns the ranks of a P-rank world not in the lost set
// (which is sorted, as simmpi.Comm.Lost returns it).
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

// liveShare partitions n work items over the live ranks and returns
// rank's half-open share. Straggler ranks (known from the fault plan, a
// sorted list) carry half weight, so detected-slow ranks shed work onto
// their healthy siblings. Shares tile [0, n) in rank order, and with every
// rank live and none slowed they are segment's, bit for bit (⌊n·2r/2P⌋ =
// ⌊n·r/P⌋). Deterministic in its inputs: every rank computes every other
// rank's share identically.
func liveShare(n int, live, stragglers []int, rank int) (lo, hi int) {
	weight := func(r int) int {
		if _, slow := slices.BinarySearch(stragglers, r); slow {
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
// [lo, hi) of s.aLeaves — the V-side atoms of an energy share, which is
// an atom-leaf range under either division.
func (s *System) shareAtomsNodeNode(lo, hi int) []int32 {
	out := make([]int32, 0, (hi-lo)*s.Params.LeafAtoms)
	for _, v := range s.aLeaves[lo:hi] {
		out = append(out, s.TA.ItemsOf(v)...)
	}
	return out
}
