package gb

import (
	"fmt"
	"math"
)

// Expansion orders of the far-field multipole approximation. The order p
// controls how much structure a far octree node keeps when it is
// collapsed to aggregates: each additional order keeps one more term of
// the Taylor expansion of the kernel about the node centers, which
// tightens the truncation error and therefore admits a LOOSER opening
// criterion at the same target error (the "Multibody Multipole Methods"
// trade: moments are cheap, near-field pairs are not).
const (
	// OrderMonopole (p = 0) is the paper's literal Fig. 2/3 scheme: a far
	// quadrature node is one pseudo-q-point (ñ = Σ w n), a far atom node
	// is a charge histogram (Q_U[k] = Σ q). Cheapest per far pair, but the
	// order-aware opening criterion must be tightest to compensate.
	OrderMonopole = 0
	// OrderDipole (p = 1) adds the first-order moments: the Q-side
	// normal-moment tensor T = Σ w n (p−c)ᵀ with the A-side collected
	// gradient on the Born path, and the per-class charge dipoles
	// D_U[k] = Σ q (p−c) on the energy path. This is the calibrated
	// default — bitwise identical to the pre-Accuracy behavior.
	OrderDipole = 1
	// OrderQuadrupole (p = 2) adds the second-order moments: the Q-side
	// rank-3 tensor S[i][jk] = Σ w n_i m_j m_k plus the A-side collected
	// Hessian on the Born path, and per-class charge quadrupoles
	// K_U[k] = Σ q m mᵀ on the energy path. Most work per far pair, but
	// the loosest opening criterion at equal error.
	OrderQuadrupole = 2
)

// Accuracy is the single validated work/precision specification of a
// run: every knob that trades energy error against work, in one struct.
// A run's accuracy is its System's point, set by NewSystem (via
// Params.Accuracy) or by WithAccuracy on a prepared system. It is also
// read by the checkpoint machinery (payload shapes depend on Order), by
// internal/tune's search, and by the serving layer's job envelope.
//
// The zero value means "unset" and resolves to DefaultAccuracy. A
// non-zero Accuracy's own zero fields take the calibrated defaults (eps
// 0.9, quadrature degree 1, derived bin width) EXCEPT Order, which is
// explicit: an explicit Accuracy with Order 0 is a genuine monopole
// request.
type Accuracy struct {
	// EpsBorn is the ε of the Born-radii far-field criterion (Fig. 2).
	// 0 means the calibrated default 0.9.
	EpsBorn float64
	// EpsEpol is the ε of the energy far-field criterion (Fig. 3).
	// 0 means the calibrated default 0.9.
	EpsEpol float64
	// BinWidth is the Born-radius class width of the Fig. 3 histograms.
	// 0 derives it as min(EpsEpol, 0.2) — the calibrated default. Must
	// not exceed EpsEpol: wider bins than the energy criterion silently
	// degrade the histogram bound (Validate rejects it).
	BinWidth float64
	// QuadOrder is the Dunavant rule degree of the surface quadrature
	// (1–8). 0 means the default degree 1. It is a surface-build-time
	// knob: NewSystem cannot change a prebuilt surface, so WithAccuracy
	// and the supervisor's ladder keep it fixed; tune.Select rebuilds
	// surfaces to search over it.
	QuadOrder int
	// Order is the far-field expansion order p ∈ {0, 1, 2} (see the
	// Order* constants). Note 0 IS monopole — the dipole default applies
	// only when the whole Accuracy struct is unset.
	Order int
	// TargetError optionally records the requested |Epol| error bound in
	// kcal/mol this point was tuned for (0: none). Informational to the
	// gb layer; tune.Select sets it on the points it returns.
	TargetError float64
}

// DefaultAccuracy is the calibrated default point: ε = 0.9 for both
// phases, derived bin width, Dunavant degree 1, dipole (p = 1) far
// field. DefaultParams carries it.
func DefaultAccuracy() Accuracy {
	return Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: OrderDipole}
}

// IsZero reports the unset state (resolves to DefaultAccuracy).
func (a Accuracy) IsZero() bool { return a == Accuracy{} }

// normalized fills the unset (zero) fields with the calibrated defaults.
// Order is NOT defaulted: on an explicit Accuracy, 0 means monopole.
func (a Accuracy) normalized() Accuracy {
	if a.EpsBorn == 0 {
		a.EpsBorn = 0.9
	}
	if a.EpsEpol == 0 {
		a.EpsEpol = 0.9
	}
	if a.QuadOrder == 0 {
		a.QuadOrder = 1
	}
	return a
}

// Validate checks the spec. Zero fields are legal (they mean "default");
// the checks apply to the normalized values. Every float must be finite:
// an infinite ε admits every separated node pair as far and an infinite
// bin width merges every radius class, so the run would return a far-off
// energy with no error.
func (a Accuracy) Validate() error {
	n := a.normalized()
	if !finitePositive(n.EpsBorn) || !finitePositive(n.EpsEpol) {
		return fmt.Errorf("gb: accuracy eps pair must be finite and positive (got %v, %v)", a.EpsBorn, a.EpsEpol)
	}
	if !finiteNonNegative(a.BinWidth) {
		return fmt.Errorf("gb: accuracy bin width %v must be finite and non-negative", a.BinWidth)
	}
	if a.BinWidth > n.EpsEpol {
		return fmt.Errorf("gb: accuracy bin width %v exceeds EpsEpol %v: bins wider than the energy criterion degrade the Fig. 3 histogram bound", a.BinWidth, n.EpsEpol)
	}
	if n.QuadOrder < 1 || n.QuadOrder > 8 {
		return fmt.Errorf("gb: accuracy quadrature order %d outside the Dunavant range 1..8", a.QuadOrder)
	}
	if a.Order < OrderMonopole || a.Order > OrderQuadrupole {
		return fmt.Errorf("gb: accuracy expansion order %d outside {0, 1, 2}", a.Order)
	}
	if !finiteNonNegative(a.TargetError) {
		return fmt.Errorf("gb: accuracy target error %v must be finite and non-negative", a.TargetError)
	}
	return nil
}

func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Relaxed returns the point with the eps pair scaled by factor (> 1
// loosens); the bin width is kept. The supervisor's default accuracy
// ladder is the system's point relaxed by 1.5 and then 2.25.
func (a Accuracy) Relaxed(factor float64) Accuracy {
	if factor <= 1 {
		return a
	}
	n := a.normalized()
	n.Order = a.Order
	n.EpsBorn *= factor
	n.EpsEpol *= factor
	return n
}

// OpeningBeta returns the order-aware Born far-field threshold β the
// point induces (see farBetaOrder): the criterion admits a node as far
// when d + s ≤ β·gap, so a larger β prunes more of the tree. Exposed for
// internal/tune's cost model and for documentation tooling.
func (a Accuracy) OpeningBeta() float64 {
	n := a.normalized()
	return farBetaOrder(n.EpsBorn, n.Order)
}

// OpeningFactor returns the order-aware energy far-field threshold
// multiplier (see epolFarFactorOrder). The criterion admits a class pair
// as far when d > (r_u + r_v)·factor, so a smaller factor prunes more.
func (a Accuracy) OpeningFactor() float64 {
	n := a.normalized()
	return epolFarFactorOrder(n.EpsEpol, n.Order)
}

// EffectiveAccuracy resolves the accuracy point the params describe: the
// normalized Accuracy, or DefaultAccuracy when it is unset.
func (p Params) EffectiveAccuracy() Accuracy {
	if p.Accuracy.IsZero() {
		return DefaultAccuracy()
	}
	return p.Accuracy.normalized()
}

// order is the expansion order of this system's far fields. NewSystem
// normalizes Params.Accuracy and System views (DESIGN.md §14) copy it.
func (s *System) order() int {
	return s.Params.Accuracy.Order
}

// bornBeta is the order-aware Born far-field threshold of this system.
func (s *System) bornBeta() float64 {
	return farBetaOrder(s.Params.Accuracy.EpsBorn, s.order())
}

// epolFactor is the order-aware energy far-field threshold multiplier.
func (s *System) epolFactor() float64 {
	return epolFarFactorOrder(s.Params.Accuracy.EpsEpol, s.order())
}

// WithAccuracy returns a copy of the system running at the given
// accuracy point. The copy is shallow — octrees and first-order
// aggregates do not depend on the accuracy knobs — except
// that raising the order to quadrupole builds the second-moment
// aggregates if the system does not have them yet. QuadOrder cannot be
// honored on an existing system (the surface is prebuilt); it is
// recorded but only NewSystem callers and tune.Select act on it. A zero
// acc returns the system unchanged.
func (s *System) WithAccuracy(acc Accuracy) (*System, error) {
	if acc.IsZero() {
		return s, nil
	}
	if err := acc.Validate(); err != nil {
		return nil, err
	}
	acc = acc.normalized()
	c := *s
	c.Params.Accuracy = acc
	if acc.Order == OrderQuadrupole && c.nodeMoment2 == nil && c.TQ != nil {
		c.nodeMoment2 = buildQuadMoments(c.TQ, c.Surf.Points, c.nodeNormal, c.nodeMoment)
	}
	return &c, nil
}
