// Corpus for the spmdsym analyzer: collectives under rank-dependent
// conditionals deadlock the world unless every branch issues the same
// collective sequence.
package spmdsym

import "gbpolar/internal/simmpi"

// Positive: only rank 0 reaches the Barrier; everyone else sails past.
func asymmetricIf(c *simmpi.Comm) error {
	if c.Rank() == 0 {
		if err := c.Barrier(); err != nil { // want "collective Barrier is only reached under a rank-dependent condition"
			return err
		}
	}
	return nil
}

// Positive: rank dependence flows through local variables.
func taintedVariable(c *simmpi.Comm) error {
	r := c.Rank()
	leader := r == 0
	if leader {
		_, err := c.Allreduce(nil, simmpi.Sum) // want "collective Allreduce is only reached under a rank-dependent condition"
		return err
	}
	return nil
}

// Positive: a switch on rank with no matching collectives elsewhere.
func asymmetricSwitch(c *simmpi.Comm) error {
	switch c.Rank() {
	case 0:
		return c.Barrier() // want "collective Barrier is only reached under a rank-dependent condition"
	}
	return nil
}

// Positive: loop trip count depends on rank, so ranks disagree on how
// many Barriers they run.
func rankBoundedLoop(c *simmpi.Comm) error {
	for i := 0; i < c.Rank(); i++ {
		if err := c.Barrier(); err != nil { // want "collective Barrier is only reached under a rank-dependent condition"
			return err
		}
	}
	return nil
}

// Documented limitation: early-return symmetry is not modeled — the
// analyzer compares an if body against its (here missing) else, so the
// tail-return shape is flagged even though both paths call Allgatherv.
// Restructure as an explicit if/else (below) or carry a lint:ignore.
func tailReturnShape(c *simmpi.Comm, seg []float64) ([]float64, error) {
	if c.Rank() > 0 {
		return c.Allgatherv(seg) // want "collective Allgatherv is only reached under a rank-dependent condition"
	}
	return c.Allgatherv(nil)
}

// Negative: both branches issue the same collective sequence — the
// master/worker Allgatherv idiom is legal SPMD.
func symmetricIfElse(c *simmpi.Comm, seg []float64) ([]float64, error) {
	if c.Rank() > 0 {
		all, err := c.Allgatherv(seg)
		if err != nil {
			return nil, err
		}
		return all, nil
	} else {
		all, err := c.Allgatherv(nil)
		if err != nil {
			return nil, err
		}
		return all, nil
	}
}

// Negative: every case (default included) issues the same sequence.
func symmetricSwitch(c *simmpi.Comm) error {
	switch c.Rank() {
	case 0:
		return c.Barrier()
	default:
		return c.Barrier()
	}
}

// Negative: point-to-point calls under rank conditionals are normal
// master/worker structure.
func masterWorker(c *simmpi.Comm) error {
	if c.Rank() == 0 {
		return c.Send(1, []float64{1})
	}
	_, err := c.Recv(0)
	return err
}

// Negative: a variable merely named rank is not the comm rank; every
// rank runs this loop identically.
func rankIsJustAName(c *simmpi.Comm, p int) error {
	for rank := 0; rank < p; rank++ {
		if rank == 0 {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Negative: unconditional collectives are the SPMD happy path.
func unconditional(c *simmpi.Comm, v []float64) ([]float64, error) {
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return c.Allreduce(v, simmpi.Sum)
}
