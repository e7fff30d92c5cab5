// Package collectivesym is the golden corpus for the interprocedural
// collective-symmetry analyzer. The positives put the divergence where
// the per-function spmdsym cannot see it — behind calls — including the
// acceptance case of a collective buried two calls deep, reported with
// its full call path. The negatives are the clean twins: symmetric
// effects reached through different call paths, the sanctioned
// error-guard idiom after a collective, and uniform (non-rank) data
// dependence.
package collectivesym

import "gbpolar/internal/simmpi"

// --- positives ---

// deepDiverge is the acceptance case: rank 0 executes a Barrier two
// calls down while the other ranks execute nothing. The finding must
// carry the full call path.
func deepDiverge(c *simmpi.Comm, v []float64) {
	if c.Rank() == 0 { // want "one path executes Barrier (via rootSide > leafBarrier) where another executes no further collective"
		rootSide(c, v)
	}
}

func rootSide(c *simmpi.Comm, v []float64) {
	leafBarrier(c)
}

func leafBarrier(c *simmpi.Comm) {
	_ = c.Barrier()
}

// earlyReturn diverges by skipping: rank 0 returns before the
// collective the other ranks go on to execute.
func earlyReturn(c *simmpi.Comm, v []float64) error {
	if c.Rank() == 0 { // want "one path executes no further collective where another executes Allreduce"
		return nil
	}
	_, err := c.Allreduce(v, simmpi.Sum)
	return err
}

// switchDiverge puts different collectives in the arms of a
// rank-tagged switch.
func switchDiverge(c *simmpi.Comm, v []float64) {
	switch c.Rank() { // want "rank-dependent branch has divergent collective effects"
	case 0:
		_ = c.Barrier()
	default:
		_, _ = c.Allgatherv(v)
	}
}

// rankTrip runs a collective a rank-dependent number of times: the
// ranks fall out of step after the first divergent iteration.
func rankTrip(c *simmpi.Comm) {
	for i := 0; i < c.Rank(); i++ { // want "loop with a rank-dependent trip count executes collectives [Barrier]"
		_ = c.Barrier()
	}
}

// --- negatives ---

// symmetricPaths is deepDiverge's clean twin: both arms reach the same
// collective sequence, through different call paths — paths are
// provenance, not identity.
func symmetricPaths(c *simmpi.Comm, v []float64) {
	if c.Rank() == 0 {
		viaDirect(c)
	} else {
		viaNested(c)
	}
}

func viaDirect(c *simmpi.Comm) { _ = c.Barrier() }

func viaNested(c *simmpi.Comm) { leafBarrier(c) }

// errGuard is the sanctioned error idiom: contrib is rank-derived, so
// the multi-assign taints err too — but simmpi aborts the whole world
// on any rank's error, so the guard is rank-uniform and must stay
// clean even though the then-arm skips the trailing Barrier.
func errGuard(c *simmpi.Comm) error {
	contrib := []float64{float64(c.Rank())}
	out, err := c.Allreduce(contrib, simmpi.Sum)
	if err != nil {
		return err
	}
	_ = out
	return c.Barrier()
}

// uniformBranch diverges on data, not rank: every rank computes the
// same condition, so every rank takes the same arm.
func uniformBranch(c *simmpi.Comm, v []float64, big bool) error {
	if big {
		_, err := c.Allreduce(v, simmpi.Sum)
		return err
	}
	return c.Barrier()
}

// rankLocalWork branches on the rank but executes no collectives in
// either continuation: nothing to diverge.
func rankLocalWork(c *simmpi.Comm, v []float64) float64 {
	if c.Rank() == 0 && len(v) > 0 {
		return v[0]
	}
	return 0
}
