// Package simmpi is a corpus stub standing in for gbpolar/internal/simmpi:
// the analyzers match methods by receiver type name and package-path
// suffix, so this stub exercises them exactly as the real package does.
// It must stay finding-free under every analyzer — the rankCrashed panic
// below is the panicfree allowlist's negative case.
package simmpi

// Op selects a reduction operator.
type Op int

// Sum adds elementwise.
const Sum Op = iota

// Comm is one rank's endpoint in a simulated world.
type Comm struct {
	rank, size int
}

// Rank returns the calling rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Barrier blocks until every rank arrives.
func (c *Comm) Barrier() error { return nil }

// Allreduce combines contributions everywhere.
func (c *Comm) Allreduce(v []float64, op Op) ([]float64, error) { return v, nil }

// Allgatherv concatenates variable-length contributions everywhere.
func (c *Comm) Allgatherv(v []float64) ([]float64, error) { return v, nil }

// Send is point-to-point and carries no symmetry obligation.
func (c *Comm) Send(to int, v []float64) error { return nil }

// Recv is point-to-point and carries no symmetry obligation.
func (c *Comm) Recv(from int) ([]float64, error) { return nil, nil }

// rankCrashed is the sanctioned control-flow panic: thrown when a fault
// kills a rank mid-collective, recovered at the worker boundary.
type rankCrashed struct{ rank int }

func (c *Comm) crash() {
	panic(rankCrashed{c.rank})
}
