// Package tune is the work/precision auto-tuner above the gb Accuracy
// API: given a molecule and a target Epol error in kcal/mol, it searches
// the accuracy space — the far-field ε pair, the Born-class histogram
// bin width, the Dunavant quadrature degree, and the multipole expansion
// order — and returns the cheapest point that meets the target, together
// with the frontier of cheaper/looser points below it (the supervisor's
// relax ladder and the serving layer's shed schedule).
//
// The search has three ingredients:
//
//  1. A per-term error model (RelErrorBound). Every knob contributes an
//     independently bounded relative-error term:
//
//     - the two clustering terms are held at O((ε/2)²) by the
//     order-aware opening criteria — farBetaOrder and
//     epolFarFactorOrder fix the per-node truncation ratio across
//     orders, so a higher expansion order buys a LOOSER criterion at
//     the same predicted error, not a different error law;
//     - the histogram bin contributes a first-order term in the bin
//     width. This term is kept separate from the clustering terms on
//     purpose: measurement (PR 8) shows the binning bias is the Epol
//     accuracy floor and does not reliably cancel against the
//     far-field truncation, so summing the bounds is the honest
//     composition;
//     - the quadrature term decays geometrically in the rule degree
//     (the Dunavant rules gain two polynomial orders per degree on a
//     fixed icosphere mesh).
//
//     The constants are calibrated conservative: the model is used to
//     ORDER candidates and prune hopeless ones, and the verification
//     pass below — not the model — is what admits the returned point.
//
//  2. The perf cost model. Each candidate's interaction count is
//     estimated from the reference run's measured count scaled by the
//     opening-criterion geometry (near-field volume ∝ (β−1)⁻³ on the
//     Born side and ∝ factor³ on the energy side, quadrature-point count
//     from the Dunavant rule sizes, a per-order flop weight), then
//     priced to modeled serial seconds on the configured machine.
//
//  3. A verification pass. The molecule is first run once at the grid's
//     tightest point, the reference: monopole, the smallest ε of the
//     ladder, its bins, the highest quadrature degree in the search.
//     Order 0 has the strictest opening criteria at any ε, so this is
//     the grid's most exact work. Candidates are then run — cheapest
//     bound-admissible first, probing cheaper points while they keep
//     passing — and a point is admitted on its MEASURED
//     |Epol − reference| with margin. The reference point is itself a
//     candidate; it is admitted from the reference run at zero error
//     and costs no verification run. Every run uses the caller's layout
//     and is deterministic, so Select itself is deterministic per
//     (molecule, target, options).
//
// The run that admitted the chosen point already computed the answer at
// the caller's layout: Select keeps that run's finished-run checkpoint
// (Selection.Snapshot), and a caller that supervises the job at the same
// layout saves it into the job's checkpoint store, so the supervisor's
// first attempt resumes a finished run instead of computing the point a
// second time. The plain and the fault-tolerance protocol compute the
// same bits at one layout, so the resumed answer is the recomputed one.
//
// The chosen point is emitted into the obs Summary as tune.* counters
// (deterministic integers only, per the Summary contract).
package tune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/quadrature"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
)

// Error-model constants (see the package comment; conservative on
// purpose — admission is by measurement, the model orders and prunes).
const (
	// clusterCoeff scales the (ε/2)² truncation ratio of each far-field
	// criterion into a relative Epol error.
	clusterCoeff = 0.08
	// binCoeff is the relative Epol error per Å of histogram bin width.
	binCoeff = 0.02
	// quadCoeff is the relative error of the degree-1 Dunavant rule;
	// each additional degree divides it by quadDecay.
	quadCoeff = 0.02
	quadDecay = 4.0
	// acceptMargin shrinks the target for measured admission: a point is
	// accepted when measured ≤ acceptMargin·target, so the returned
	// point sits strictly inside the budget rather than on its edge.
	acceptMargin = 0.9
	// pruneSlack bounds which candidates are worth a verification run:
	// predicted error beyond pruneSlack·target is hopeless even after
	// discounting the model's conservatism.
	pruneSlack = 10.0
)

// Work-index constants: relative per-interaction flop weight of each
// expansion order, and the Born/energy share of a serial run's work.
// Heuristics for RANKING only — verified points carry measured counts.
var orderWork = [3]float64{0.7, 1.0, 2.4}

const (
	bornShare = 0.7
	epolShare = 0.3
)

// Point is one candidate accuracy configuration with its predicted and
// (when verified) measured behavior.
type Point struct {
	// Acc is the full accuracy specification, TargetError included.
	Acc gb.Accuracy
	// PredictedRelError is the per-term model bound, relative to the
	// reference |Epol|; PredictedError is the same in kcal/mol.
	PredictedRelError float64
	PredictedError    float64
	// MeasuredError is |Epol − reference| in kcal/mol from the
	// verification run; valid only when Verified.
	MeasuredError float64
	Verified      bool
	// Epol is the verification run's energy (Verified points only). The
	// reference point's is the reference run's.
	Epol float64
	// Ops is the interaction count summed over the run's cores: measured
	// for verified points, the cost model's estimate otherwise.
	Ops int64
	// CostSeconds is the perf-modeled serial wall time of the point.
	CostSeconds float64
	// workIndex is the dimensionless ranking cost (see package comment).
	workIndex float64
}

// Options configures Select. The zero value is usable.
type Options struct {
	// Params supplies the non-accuracy physics parameters (solvent, tree
	// leaf sizes, ...). Zero means gb.DefaultParams(); the accuracy
	// fields are overridden per candidate either way.
	Params gb.Params
	// Surface is the base surface configuration; RuleDegree is
	// overridden per candidate quadrature order. Zero means
	// surface.DefaultConfig().
	Surface surface.Config
	// Machine and Cal price candidate costs (defaults: Lonestar4, the
	// default calibration).
	Machine perf.Machine
	Cal     perf.Calibration
	// MaxQuadOrder bounds the quadrature-degree dimension of the search
	// (default 2, Dunavant range 1..8). The reference point uses the
	// maximum degree searched.
	MaxQuadOrder int
	// MaxVerifyRuns bounds the verification runs after the reference run
	// (default 6). Exhausting the budget falls back to the reference
	// point, whose measured error is zero by definition.
	MaxVerifyRuns int
	// EpsScales is the ε ladder of the grid, applied to both criteria
	// (default {0.3, 0.45, 0.675, 0.9, 1.35, 2.0}). Every entry must be
	// finite and positive; the smallest sets the reference point.
	EpsScales []float64
	// Processes and ThreadsPerProcess are the layout of every run Select
	// makes. Zero means one, as in gb.RunSpec. A layout gb rejects for a
	// degree's system (gb.ErrInvalidLayout) runs on one rank instead, as
	// the supervisor's fallback rung does.
	Processes         int
	ThreadsPerProcess int
	// Ctx cancels the search. Select checks it before each surface and
	// system build and passes it to every run; a canceled search returns
	// an error wrapping gb.ErrRunCanceled and the context's error. Nil
	// means never canceled.
	Ctx context.Context
	// Obs receives the chosen point as tune.* counters. Nil is inert.
	Obs *obs.Recorder
}

// Selection is the result of one tuner search.
type Selection struct {
	// Point is the cheapest admitted point: its measured error meets the
	// target.
	Point Point
	// Ladder is the shed schedule below Point: strictly cheaper points
	// at the same quadrature order (the surface cannot be rebuilt
	// mid-supervision), nearest-cost first with strictly increasing
	// predicted error. Each step's PredictedRelError prices the shed
	// accuracy into an ErrorBound.
	Ladder []Point
	// Candidates is the full evaluated grid, cheapest first.
	Candidates []Point
	// ReferenceEpol and ReferenceAcc describe the tight reference run
	// all errors are measured against.
	ReferenceEpol float64
	ReferenceAcc  gb.Accuracy
	// VerifyRuns is the number of candidate verification runs spent. The
	// reference point's admission is not one.
	VerifyRuns int
	// System and Surface are ready to run at Point.Acc (the surface is
	// built at Point's quadrature order).
	System  *gb.System
	Surface *surface.Surface
	// Snapshot is the encoded gb.PhaseEpol checkpoint of the run that
	// admitted Point — the reference run for the reference point — at the
	// caller's layout. System resumes from it (gb.RunSpec.Resume) to the
	// same Epol and radii as a recompute at that layout, under either
	// protocol. Nil when that run fell back to one rank because gb
	// rejected the layout: its bits are not the caller's.
	Snapshot []byte
}

// epolSink is the checkpoint sink of one search run: it keeps the
// finished run's encoded PhaseEpol checkpoint and drops the earlier
// phases. gb encodes every snapshot into a fresh buffer, so the
// bytes are kept without a copy.
type epolSink struct{ epol []byte }

func (k *epolSink) Save(phase gb.CheckpointPhase, encoded []byte) error {
	if phase == gb.PhaseEpol {
		k.epol = encoded
	}
	return nil
}

// DefaultEpsScales is the grid's ε ladder.
func DefaultEpsScales() []float64 { return []float64{0.3, 0.45, 0.675, 0.9, 1.35, 2.0} }

// knobs resolves a point's effective knob values (the same defaulting
// NewSystem applies: eps 0.9, degree 1, bin min(EpsEpol, 0.2)).
func knobs(a gb.Accuracy) (eb, ee, bin float64, q int) {
	eb, ee, q = a.EpsBorn, a.EpsEpol, a.QuadOrder
	if eb == 0 {
		eb = 0.9
	}
	if ee == 0 {
		ee = 0.9
	}
	if q == 0 {
		q = 1
	}
	bin = a.BinWidth
	if bin == 0 {
		bin = math.Min(ee, 0.2)
	}
	return eb, ee, bin, q
}

// RelErrorBound is the per-term error model: a conservative bound on the
// point's relative Epol error, composed as the SUM of the independent
// clustering, binning, and quadrature terms (no cancellation credit).
func RelErrorBound(acc gb.Accuracy) float64 {
	eb, ee, bin, q := knobs(acc)
	e := clusterCoeff * (eb / 2) * (eb / 2)
	e += clusterCoeff * (ee / 2) * (ee / 2)
	e += binCoeff * bin
	e += quadCoeff * math.Pow(quadDecay, float64(1-q))
	return e
}

// rulePoints returns the Dunavant rule size for a degree. Degrees reach
// this validated (1..8), so failures only surface misconfiguration.
func rulePoints(degree int) (float64, error) {
	r, err := quadrature.Dunavant(degree)
	if err != nil {
		return 0, fmt.Errorf("tune: %w", err)
	}
	return float64(r.NumPoints()), nil
}

// workIndexOf ranks a point's serial work against the calibrated
// default: quadrature-point count times the Born near-field volume
// (∝ (β−1)⁻³) on one side, the energy near-field volume (∝ factor³) on
// the other, each weighted by the order's per-interaction flop cost.
func workIndexOf(acc gb.Accuracy) (float64, error) {
	def := gb.DefaultAccuracy()
	_, _, _, q := knobs(acc)
	bornVol := math.Pow((def.OpeningBeta()-1)/(acc.OpeningBeta()-1), 3)
	epolVol := math.Pow(acc.OpeningFactor()/def.OpeningFactor(), 3)
	w := orderWork[acc.Order]
	nqHi, err := rulePoints(q)
	if err != nil {
		return 0, err
	}
	nqLo, err := rulePoints(1)
	if err != nil {
		return 0, err
	}
	nq := nqHi / nqLo
	return bornShare*nq*bornVol*w + epolShare*epolVol*w, nil
}

// gridPoint is the grid's point at ε scale, quadrature degree q and
// expansion order ord: both criteria at the scale, the bin width tied to
// it (bin = min(ε/4, 0.2): the binning term must shrink with the
// clustering terms or it floors the error).
func gridPoint(scale float64, q, ord int) gb.Accuracy {
	return gb.Accuracy{
		EpsBorn: scale, EpsEpol: scale,
		BinWidth:  math.Min(scale/4, 0.2),
		QuadOrder: q, Order: ord,
	}
}

// Select searches the accuracy space for the cheapest point whose
// measured |Epol − reference| meets targetKcal on this molecule. It is
// deterministic per (molecule, target, options).
func Select(mol *molecule.Molecule, targetKcal float64, opt Options) (*Selection, error) {
	if mol == nil || mol.NumAtoms() == 0 {
		return nil, fmt.Errorf("tune: nil or empty molecule")
	}
	if !(targetKcal > 0) {
		return nil, fmt.Errorf("tune: target error %v kcal/mol must be positive", targetKcal)
	}
	if opt.Machine.OpsPerSecond <= 0 {
		opt.Machine = perf.Lonestar4()
	}
	if opt.Cal == (perf.Calibration{}) {
		opt.Cal = perf.DefaultCalibration()
	}
	if opt.MaxQuadOrder <= 0 {
		opt.MaxQuadOrder = 2
	}
	if opt.MaxQuadOrder > 8 {
		return nil, fmt.Errorf("tune: MaxQuadOrder %d outside the Dunavant range 1..8", opt.MaxQuadOrder)
	}
	if opt.MaxVerifyRuns <= 0 {
		opt.MaxVerifyRuns = 6
	}
	if len(opt.EpsScales) == 0 {
		opt.EpsScales = DefaultEpsScales()
	}
	minEps := math.Inf(1)
	for _, scale := range opt.EpsScales {
		if !(scale > 0) || math.IsInf(scale, 1) {
			return nil, fmt.Errorf("tune: ε scale %v must be finite and positive", scale)
		}
		minEps = math.Min(minEps, scale)
	}
	baseParams := opt.Params
	if baseParams == (gb.Params{}) {
		baseParams = gb.DefaultParams()
	}
	baseSurf := opt.Surface
	if baseSurf == (surface.Config{}) {
		baseSurf = surface.DefaultConfig()
	}
	canceled := func() error {
		if opt.Ctx == nil {
			return nil
		}
		if err := opt.Ctx.Err(); err != nil {
			return fmt.Errorf("tune: %w: %w", gb.ErrRunCanceled, err)
		}
		return nil
	}

	// The reference is the grid's tightest point: monopole, the smallest
	// ε, the highest degree searched. Lazily built surface + system per
	// quadrature order, each at the reference point, so every candidate
	// at that degree is a cheap WithAccuracy copy (which builds the
	// quadrupole moments only for an order-2 candidate). The
	// degrees differ only in the rule placed on the surviving triangles,
	// so one burial pass serves them all; both passes run on the
	// search's cores, at most one per atom.
	refAcc := gridPoint(minEps, opt.MaxQuadOrder, gb.OrderMonopole)
	n := mol.NumAtoms()
	workers := min(min(max(opt.Processes, 1), n)*min(max(opt.ThreadsPerProcess, 1), n), n) // no overflow: each factor ≤ n
	var culled *surface.Culled
	surfs := make(map[int]*surface.Surface)
	systems := make(map[int]*gb.System)
	getSystem := func(q int) (*gb.System, *surface.Surface, error) {
		if s, ok := systems[q]; ok {
			return s, surfs[q], nil
		}
		if err := canceled(); err != nil {
			return nil, nil, err
		}
		if culled == nil {
			var err error
			if culled, err = surface.Cull(mol, baseSurf, workers); err != nil {
				return nil, nil, fmt.Errorf("tune: culling the surface: %w", err)
			}
		}
		surf, err := culled.Emit(q, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("tune: building degree-%d surface: %w", q, err)
		}
		if err := canceled(); err != nil {
			return nil, nil, err
		}
		p := baseParams
		acc := refAcc
		acc.QuadOrder = q
		p.Accuracy = acc
		sys, err := gb.NewSystem(mol, surf, p)
		if err != nil {
			return nil, nil, fmt.Errorf("tune: building degree-%d system: %w", q, err)
		}
		surfs[q], systems[q] = surf, sys
		return sys, surf, nil
	}
	// run makes one search run of sys's point at the caller's layout and
	// returns its finished-run checkpoint. gb rejects a layout before the
	// run starts, so the one-rank retry repeats no run work; it keeps no
	// checkpoint.
	run := func(sys *gb.System) (*gb.Result, []byte, error) {
		sink := &epolSink{}
		spec := gb.RunSpec{Processes: opt.Processes, ThreadsPerProcess: opt.ThreadsPerProcess,
			Ctx: opt.Ctx, Checkpoint: sink}
		res, err := sys.Run(spec)
		if errors.Is(err, gb.ErrInvalidLayout) {
			spec.Processes, spec.ThreadsPerProcess, spec.Checkpoint = 1, 1, nil
			res, err = sys.Run(spec)
			return res, nil, err
		}
		return res, sink.epol, err
	}

	refSys, _, err := getSystem(opt.MaxQuadOrder)
	if err != nil {
		return nil, err
	}
	refRes, refSnap, err := run(refSys)
	if err != nil {
		return nil, fmt.Errorf("tune: reference run: %w", err)
	}
	refEpol := refRes.Epol
	refOps := refRes.TotalOps()
	refIndex, err := workIndexOf(refAcc)
	if err != nil {
		return nil, err
	}

	price := func(ops int64, q int) float64 {
		nqc, err1 := rulePoints(q)
		nqr, err2 := rulePoints(opt.MaxQuadOrder)
		if err1 != nil || err2 != nil {
			return math.Inf(1)
		}
		nq := int(float64(len(refSys.Surf.Points)) * nqc / nqr)
		shape := perf.RunShape{Processes: 1, ThreadsPerProcess: 1,
			DataBytes: perf.EstimateDataBytes(mol.NumAtoms(), nq)}
		b, err := opt.Machine.Price(opt.Cal, shape, []int64{ops}, simmpi.Stats{})
		if err != nil {
			return math.Inf(1)
		}
		return b.TotalSeconds
	}

	// Candidate grid: orders × quadrature degrees × the ε ladder.
	var cands []Point
	for q := 1; q <= opt.MaxQuadOrder; q++ {
		for ord := gb.OrderMonopole; ord <= gb.OrderQuadrupole; ord++ {
			for _, scale := range opt.EpsScales {
				acc := gridPoint(scale, q, ord)
				acc.TargetError = targetKcal
				wi, err := workIndexOf(acc)
				if err != nil {
					return nil, err
				}
				pt := Point{Acc: acc, workIndex: wi}
				pt.PredictedRelError = RelErrorBound(acc)
				pt.PredictedError = pt.PredictedRelError * math.Abs(refEpol)
				pt.Ops = int64(float64(refOps) * pt.workIndex / refIndex)
				pt.CostSeconds = price(pt.Ops, q)
				cands = append(cands, pt)
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.workIndex < b.workIndex {
			return true
		}
		if b.workIndex < a.workIndex {
			return false
		}
		if a.Acc.Order != b.Acc.Order {
			return a.Acc.Order < b.Acc.Order
		}
		if a.Acc.QuadOrder != b.Acc.QuadOrder {
			return a.Acc.QuadOrder < b.Acc.QuadOrder
		}
		return a.Acc.EpsEpol > b.Acc.EpsEpol
	})
	isRef := func(a gb.Accuracy) bool {
		a.TargetError = 0
		return a == refAcc
	}
	refIdx := 0
	for i := range cands {
		if isRef(cands[i].Acc) {
			refIdx = i
			break
		}
	}

	sel := &Selection{
		Candidates:    cands,
		ReferenceEpol: refEpol,
		ReferenceAcc:  refAcc,
	}

	// verify runs candidate i and records the measured error and the
	// run's checkpoint. The reference point is admitted from the
	// reference run: no run, and no charge against the verification
	// budget. Only the admitted point's checkpoint outlives Select.
	snaps := make([][]byte, len(cands))
	verify := func(i int) (bool, error) {
		pt := &cands[i]
		res, snap := refRes, refSnap
		if !isRef(pt.Acc) {
			sys, _, err := getSystem(pt.Acc.QuadOrder)
			if err != nil {
				return false, err
			}
			if sys, err = sys.WithAccuracy(pt.Acc); err == nil {
				res, snap, err = run(sys)
			}
			if err != nil {
				return false, fmt.Errorf("tune: verifying %+v: %w", pt.Acc, err)
			}
			sel.VerifyRuns++
		}
		snaps[i] = snap
		pt.Verified = true
		pt.Epol = res.Epol
		pt.MeasuredError = math.Abs(res.Epol - refEpol)
		pt.Ops = res.TotalOps()
		pt.CostSeconds = price(pt.Ops, pt.Acc.QuadOrder)
		return pt.MeasuredError <= acceptMargin*targetKcal, nil
	}

	// Start at the cheapest bound-admissible candidate, then probe
	// cheaper points while they keep passing (the model is conservative,
	// so cheaper-than-bound points often measure fine); if the start
	// itself fails, walk up toward tighter points.
	start := -1
	for i := range cands {
		if cands[i].PredictedError <= targetKcal {
			start = i
			break
		}
	}
	if start < 0 {
		start = len(cands) // no bound-admissible point: walk nothing, fall back
	}
	chosen := -1
	// probeDown verifies candidates from `from` toward cheaper points
	// while they keep passing, keeping the cheapest that passed. With
	// slackGate, points whose bound is hopeless (beyond pruneSlack×) are
	// not worth a run.
	probeDown := func(from int, slackGate bool) error {
		for i := from; i >= 0 && sel.VerifyRuns < opt.MaxVerifyRuns; i-- {
			if slackGate && cands[i].PredictedError > pruneSlack*targetKcal {
				break
			}
			ok, err := verify(i)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			chosen = i
		}
		return nil
	}
	if start < len(cands) {
		ok, err := verify(start)
		if err != nil {
			return nil, err
		}
		if ok {
			chosen = start
			if err := probeDown(start-1, true); err != nil {
				return nil, err
			}
		} else {
			for i := start + 1; i < len(cands) && sel.VerifyRuns < opt.MaxVerifyRuns; i++ {
				ok, err := verify(i)
				if err != nil {
					return nil, err
				}
				if ok {
					chosen = i
					break
				}
			}
		}
	} else {
		// No candidate's BOUND meets the target. The bounds are
		// conservative, so measure from the tightest end of the grid
		// before conceding to the reference fallback.
		if err := probeDown(len(cands)-1, false); err != nil {
			return nil, err
		}
	}
	if chosen < 0 {
		// Fallback: the reference point, admitted from its own run.
		chosen = refIdx
		if _, err := verify(chosen); err != nil {
			return nil, err
		}
		opt.Obs.Count("tune.fallback_reference", 1)
	}
	sel.Point = cands[chosen]
	sel.Snapshot = snaps[chosen]

	// Shed ladder: strictly cheaper points at the selected quadrature
	// order (WithAccuracy cannot rebuild the surface), nearest-cost
	// first, predicted error strictly increasing, capped at 4 steps.
	lastErr := sel.Point.PredictedRelError
	for i := indexBelow(cands, sel.Point.workIndex); i >= 0 && len(sel.Ladder) < 4; i-- {
		c := cands[i]
		if c.Acc.QuadOrder != sel.Point.Acc.QuadOrder {
			continue
		}
		if c.PredictedRelError <= lastErr {
			continue
		}
		lastErr = c.PredictedRelError
		sel.Ladder = append(sel.Ladder, c)
	}

	sys, surf, err := getSystem(sel.Point.Acc.QuadOrder)
	if err != nil {
		return nil, err
	}
	tuned, err := sys.WithAccuracy(sel.Point.Acc)
	if err != nil {
		return nil, fmt.Errorf("tune: configuring selected point: %w", err)
	}
	sel.System = tuned
	sel.Surface = surf

	emit(opt.Obs, sel, targetKcal)
	return sel, nil
}

// indexBelow returns the largest index whose workIndex is strictly below
// w (cands sorted ascending), or -1.
func indexBelow(cands []Point, w float64) int {
	i := sort.Search(len(cands), func(i int) bool { return cands[i].workIndex >= w })
	return i - 1
}

// milli and micro render knobs as deterministic Summary integers.
func milli(v float64) int64 { return int64(math.Round(v * 1e3)) }
func micro(v float64) int64 { return int64(math.Round(v * 1e6)) }

// emit publishes the chosen point into the recorder's Summary-side
// counters (integers only — the Summary contract).
func emit(rec *obs.Recorder, sel *Selection, target float64) {
	rec.Count("tune.candidates", int64(len(sel.Candidates)))
	rec.Count("tune.verify_runs", int64(sel.VerifyRuns))
	a := sel.Point.Acc
	rec.Count("tune.selected.order", int64(a.Order))
	rec.Count("tune.selected.quad_order", int64(a.QuadOrder))
	rec.Count("tune.selected.eps_born_milli", milli(a.EpsBorn))
	rec.Count("tune.selected.eps_epol_milli", milli(a.EpsEpol))
	rec.Count("tune.selected.bin_milli", milli(a.BinWidth))
	rec.Count("tune.selected.ladder_steps", int64(len(sel.Ladder)))
	rec.Count("tune.target_micro_kcal", micro(target))
	rec.Count("tune.selected.predicted_micro_kcal", micro(sel.Point.PredictedError))
	rec.Count("tune.selected.measured_micro_kcal", micro(sel.Point.MeasuredError))
}
