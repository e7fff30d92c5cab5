package gb

import "gbpolar/internal/octree"

// This file implements the ATOM-BASED-WORK-DIVISION alternative of §IV
// for the Born-integral phase: atoms (not leaf nodes) are divided among
// processes, and each process traverses both octrees but computes only
// for the atoms in its range. The paper observes it is slightly slower
// than node-based division and — because division boundaries split tree
// nodes — its approximation error varies with the process count, unlike
// the node-based scheme. The energy phase is the same under both
// divisions (runDistributed): its shares are atom-leaf ranges.

// approxIntegralsAtomRange is APPROX-INTEGRALS restricted to atoms whose
// octree item position lies in [lo, hi): far-field sums may only be
// collected at T_A nodes fully owned by the range (collecting at a
// partially-owned node would double-count across ranks), so boundary
// nodes are descended instead — the source of the P-dependent error.
func (s *System) approxIntegralsAtomRange(a, q int32, lo, hi int32, acc *bornAccum) int64 {
	an := &s.TA.Nodes[a]
	if an.End <= lo || an.Start >= hi {
		return 1
	}
	if an.Start >= lo && an.End <= hi {
		return s.ApproxIntegrals(a, q, acc)
	}
	// Partially owned: cannot approximate here.
	if an.Leaf {
		ops := s.exactIntegrals(max(an.Start, lo), min(an.End, hi), q, acc)
		s.flushIntegrals(q, acc)
		return ops
	}
	ops := int64(1)
	for _, c := range an.Children {
		if c != octree.NoChild {
			ops += s.approxIntegralsAtomRange(c, q, lo, hi, acc)
		}
	}
	return ops
}
