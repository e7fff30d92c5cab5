package gb

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"gbpolar/internal/perf"
	"gbpolar/internal/sched"
	"gbpolar/internal/simmpi"
)

// Result is the outcome of one full polarization-energy computation
// (Born radii + Epol) under some parallel driver.
type Result struct {
	// Epol is the polarization energy in kcal/mol.
	Epol float64
	// Born holds the Born radii indexed by original atom index.
	Born []float64
	// Processes and ThreadsPerProcess describe the layout (P and p).
	Processes, ThreadsPerProcess int
	// PerCoreOps holds the interaction count of every core (P×p
	// entries): the input to the performance model. It counts the
	// paper's ordered interactions, not kernel calls: an exact leaf pair
	// that the symmetric near field evaluates once (DESIGN.md §13) still
	// counts |U|·|V| on each side.
	PerCoreOps []int64
	// Traffic is the communication log.
	Traffic simmpi.Stats
	// Wall is the in-process wall-clock time of the run.
	Wall time.Duration
	// Steals counts the work-stealing events of the winning rank's pool
	// (zero at one thread per rank).
	Steals int64

	// Degraded marks a partial result: ranks died mid-run under the
	// Degrade policy and Epol is missing their final-phase contributions.
	// |Epol_serial − Epol| ≤ ErrorBound then holds (see degradedBound).
	Degraded bool
	// ErrorBound is the guaranteed bound on the missing energy mass of a
	// Degraded result, in kcal/mol. Zero when not degraded.
	ErrorBound float64
	// LostRanks are the ranks lost to injected crashes during the run.
	LostRanks []int
	// Recovered reports that lost or straggling ranks' work was
	// re-assigned to survivors (at least one phase was healed).
	Recovered bool
}

// TotalOps sums the per-core operation counts.
func (r *Result) TotalOps() int64 {
	t := int64(0)
	for _, o := range r.PerCoreOps {
		t += o
	}
	return t
}

// Span names of the algorithm phases; comm spans ("comm:<kind>") are
// opened inside simmpi and fault-recovery redo iterations carry a
// "redo:" prefix (see phaseName).
const (
	spanRank   = "rank"
	spanBorn   = "approx-integrals"
	spanPush   = "push-integrals-to-atoms"
	spanOctree = "octree-build"
	spanEpol   = "approx-epol"
	redoPrefix = "redo:"
)

// phaseName names a phase span, marking heal-by-redo repeat iterations.
func phaseName(base string, iter int) string {
	if iter == 0 {
		return base
	}
	return redoPrefix + base
}

// epolPart is the energy-phase reduction accumulator: the partial raw sum
// plus the near/far evaluation tally riding along. The sum field is
// accumulated and merged exactly like the former bare *float64, so the
// reduction stays bitwise identical.
type epolPart struct {
	sum   float64
	tally pairTally
}

func newEpolPart() *epolPart { return new(epolPart) }

func (p *epolPart) merge(o *epolPart) {
	p.sum += o.sum
	p.tally.near += o.tally.near
	p.tally.far += o.tally.far
}

// balancePool redistributes a work-stealing pool's operation counts evenly
// across its workers. On the execution host the raw per-worker counts
// reflect goroutine scheduling, not the algorithm: the randomized
// work-stealing scheduler guarantees T_p ≤ W/p + O(span) on a real
// multicore, so the modeled per-core load is the fair share W/p (the
// remainder is spread over the first workers). Distribution across RANKS
// (static division) is left untouched — that imbalance is algorithmic.
func balancePool(ops []int64) []int64 {
	total := int64(0)
	for _, o := range ops {
		total += o
	}
	p := int64(len(ops))
	out := make([]int64, len(ops))
	for i := range out {
		out[i] = total / p
		if int64(i) < total%p {
			out[i]++
		}
	}
	return out
}

// ErrInvalidLayout marks a layout the system cannot run: more ranks, or
// more cores, than it has work items. Callers that can run elsewhere
// test it with errors.Is instead of matching the message.
var ErrInvalidLayout = errors.New("gb: invalid layout")

// validateLayout rejects a layout with more ranks, or more cores, than
// work items up front with a descriptive error instead of producing empty
// segments downstream, and before anything P·p-sized is allocated.
// dispatch has already made P and p at least one.
func (s *System) validateLayout(P, p int) error {
	n := s.NumAtoms()
	if P > n {
		return fmt.Errorf("%w: P=%d exceeds the %d atoms (at most one atom per rank segment)", ErrInvalidLayout, P, n)
	}
	// P·p > n, tested without forming the product, which can overflow.
	if p > n/P {
		return fmt.Errorf("%w: P×p = %d×%d cores exceed the %d atoms (at least one atom per core)", ErrInvalidLayout, P, p, n)
	}
	if n := len(s.qLeaves); s.Params.Division == NodeNode && P > n {
		return fmt.Errorf("%w: P=%d exceeds the %d quadrature leaves of the node division", ErrInvalidLayout, P, n)
	}
	// Every division shares atom leaves in the energy phase.
	if n := len(s.aLeaves); P > n {
		return fmt.Errorf("%w: P=%d exceeds the %d atom leaves of the energy phase", ErrInvalidLayout, P, n)
	}
	return nil
}

// runDistributed executes the shared-data algorithm on P ranks × p
// threads, the one driver behind every layout: serial is 1×1 and OCT_CILK
// is 1×p. A one-rank collective copies its only slot, so those layouts
// compute the same bits a dedicated serial or shared-memory loop would
// (DESIGN.md §12). Every run, with a fault plan or without, runs each
// phase through one heal closure, the heal-by-redo discipline described
// in faulttol.go: partition over the live set, run the phase, read the
// membership on the plan's op clock, and redo the phase over the shrunk
// set if it changed — or, for the final energy phase under the Degrade
// policy, accept the partial sum and report a rigorous ErrorBound for the
// dead ranks' missing share. Without a plan nothing is ever lost, so the
// shares are the static segments and each phase runs once.
//
// With spec.Checkpoint set, a snapshot of the world-global state is saved
// after each completed phase inside Sync brackets (quiet barriers), so
// the sink perturbs neither the numbers nor the counter-side Summary.
// With spec.Resume set, completed phases are skipped: their merged state
// comes from the snapshot and the run re-enters at the first incomplete
// phase. The restored obs.CounterSnapshot makes the resumed run's Summary
// cover the whole logical run; the resumed half starts with all its ranks
// live, as every fresh world does.
func (s *System) runDistributed(P, p int, spec RunSpec) (*Result, error) {
	cfg, rec, sink, resume := spec.Faults, spec.Obs, spec.Checkpoint, spec.Resume
	if cfg == nil {
		cfg = &FaultConfig{}
	}
	if err := s.validateLayout(P, p); err != nil {
		return nil, err
	}
	sw := perf.StartTimer()

	startPhase := PhaseNone
	if resume != nil {
		startPhase = resume.Phase
		rec.RestoreCounterSnapshot(resume.Obs)
		if startPhase >= PhaseEpol {
			// The snapshot is a finished run: reconstruct the Result without
			// spinning up a world. The Summary covers everything the snapshot
			// did (all phases); only the rank-root spans — open while the
			// snapshot was taken — are absent, since no world runs here.
			n := s.NumAtoms()
			radii := make([]float64, n)
			copy(radii, resume.Payload[:n])
			return &Result{
				Epol: resume.Payload[n], Born: radii,
				Processes: P, ThreadsPerProcess: p,
				PerCoreOps: make([]int64, P*p),
				Wall:       sw.Elapsed(),
				Degraded:   resume.Payload[n+1] != 0,
				ErrorBound: resume.Payload[n+2],
			}, nil
		}
	}
	perCoreOps := make([]int64, P*p)

	// Every rank that completes records its outcome in its own slot; the
	// lowest surviving rank's slot becomes the Result. (All survivors hold
	// identical values — per-rank slots just keep the writes race-free
	// without electing a writer, which would itself be a fault-prone
	// protocol.)
	type rankOutcome struct {
		done      bool
		energy    float64
		radii     []float64
		steals    int64
		degraded  bool
		bound     float64
		recovered bool
	}
	outs := make([]rankOutcome, P)

	//lint:ignore ctxflow the world's run IS this call; RunSpec.Ctx is observed cooperatively at phase boundaries (spec.canceled), not by interrupting ranks
	traffic, err := simmpi.RunPlanObs(P, cfg.Plan, rec, func(c *simmpi.Comm) error {
		rank := c.Rank()
		// The rank root span. Its deferred End force-closes any phase span
		// leaked by an error return or an injected crash (panic unwind), so
		// the exported span tree stays balanced on every path.
		rankSpan := rec.StartSpan(rank, spanRank)
		defer rankSpan.End()
		var pool *sched.Pool
		if p > 1 {
			pool = sched.New(p)
			pool.Observe(rec)
			defer pool.Close()
		}
		coreBase := rank * p

		// Every rank of a fresh world starts live, resumed or not; the plan's
		// stragglers are known up front and shed half their share.
		var lost []int
		live := liveRanksOf(P, nil)
		stragglers := c.Health().Straggling
		recovered := len(stragglers) > 0
		// saveCheckpoint snapshots the world-global state after a
		// completed phase. The bracket Syncs are quiet barriers: the first
		// guarantees every live rank finished the phase's counting before
		// the lowest live rank encodes (one writer, no concurrent Save),
		// the second holds the others until the write is durable. Nothing
		// here is a fault point or a deterministic counter, so a run with a
		// sink is op- and Summary-identical to one without.
		saveCheckpoint := func(phase CheckpointPhase, payload func() []float64) error {
			if sink == nil {
				return nil
			}
			if err := c.Sync(); err != nil {
				return err
			}
			if len(live) > 0 && rank == live[0] {
				enc := (&Checkpoint{
					Phase: phase, Processes: P,
					Live: live, Lost: lost,
					ConfigTag: s.configTag(),
					EpsBorn:   s.Params.Accuracy.EpsBorn,
					EpsEpol:   s.Params.Accuracy.EpsEpol,
					Payload:   payload(),
					Obs:       rec.CounterSnapshot(),
				}).Encode()
				c.RecordCheckpoint(int64(len(enc)))
				if err := sink.Save(phase, enc); err != nil {
					return fmt.Errorf("gb: saving %s checkpoint: %w", phase, err)
				}
			}
			return c.Sync()
		}
		// share partitions n items over the live set, stragglers at half
		// weight; with every rank live and none slowed it is the static
		// segment, bit for bit.
		share := func(n int) (int, int) {
			return liveShare(n, live, stragglers, rank)
		}
		// heal runs one phase under the heal-by-redo discipline of
		// faulttol.go: tick the plan, open the phase span, run body (the
		// phase's share of work and its collective), and read the
		// membership on the plan's op clock. An iteration whose membership
		// changed is redone over the shrunk live set, unless degrade is
		// given and the policy is Degrade: then degrade bounds the newly
		// lost shares (reading the membership the iteration ran on), the
		// partial result stands, and the shrunk membership is adopted for
		// the phase's checkpoint. An accepted iteration applies body's
		// commit, so a commit only ever sees a round every live rank
		// contributed to. The "redo.iterations" histogram records the final
		// iteration count, a workload property (zero on every rank for
		// crash-free plans, so crash-free summaries stay byte-identical).
		heal := func(span string, body func() (commit func(), err error), degrade func(newLost []int)) error {
			for iter := 0; iter <= P; iter++ {
				if err := c.Tick(); err != nil {
					return err
				}
				sp := rec.StartSpan(rank, phaseName(span, iter))
				commit, err := body()
				if err != nil {
					return err
				}
				if newLost := c.Lost(); !slices.Equal(newLost, lost) {
					if degrade == nil || cfg.Policy == Recover {
						lost, live = newLost, liveRanksOf(P, newLost)
						recovered = true
						sp.End()
						continue
					}
					degrade(newLost)
					lost, live = newLost, liveRanksOf(P, newLost)
				}
				commit()
				sp.End()
				rec.Observe("redo.iterations", int64(iter))
				return nil
			}
			return fmt.Errorf("gb: %s heal did not converge", span)
		}

		// Each worker's vector-kernel buffers, lent to this rank's run
		// (kernels.go): the Born gather list and the energy near field.
		kernels := make([]*kernelScratch, p)
		for w := range kernels {
			kernels[w] = getKernelScratch()
		}
		defer func() {
			for _, k := range kernels {
				kernelScratchPool.Put(k)
			}
		}()

		// ---- Phase 1+2+3: Born integrals + Allreduce of the flattened
		// integral payload (Fig. 4 Steps 1-3; the Hessian block rides along
		// only at OrderQuadrupole) --------------------------------------
		var acc *bornAccum
		if startPhase < PhaseIntegrals {
			err := heal(spanBorn, func() (func(), error) {
				// One accumulator per subrange, merged in range order (see
				// reduceRange): scheduling never changes the float merge
				// order, so each rank's integral payload is bitwise
				// reproducible. Rebuilt fresh per iteration so a redo cannot
				// double-count.
				switch s.Params.Division {
				case NodeNode:
					lo, hi := share(len(s.qLeaves))
					acc = reduceRange(pool, hi-lo, s.newBornAccum,
						//lint:ignore hotalloc per-phase worker body; allocated once per Born iteration and amortized over its whole range
						func(worker, i0, i1 int, acc *bornAccum) {
							acc.scratch = &kernels[worker].born
							ops := int64(0)
							for _, q := range s.qLeaves[lo+i0 : lo+i1] {
								ops += s.ApproxIntegrals(s.TA.Root(), q, acc)
							}
							perCoreOps[coreBase+worker] += ops
						},
						(*bornAccum).add)
				case AtomNode:
					alo, ahi := share(s.NumAtoms())
					acc = reduceRange(pool, len(s.qLeaves), s.newBornAccum,
						//lint:ignore hotalloc per-phase worker body; allocated once per Born iteration and amortized over its whole range
						func(worker, i0, i1 int, acc *bornAccum) {
							acc.scratch = &kernels[worker].born
							ops := int64(0)
							for _, q := range s.qLeaves[i0:i1] {
								ops += s.approxIntegralsAtomRange(s.TA.Root(), q, int32(alo), int32(ahi), acc)
							}
							perCoreOps[coreBase+worker] += ops
						},
						(*bornAccum).add)
				}
				// Work-done counters: a redo iteration counts again, because the
				// evaluations really ran again. The per-rank values also feed
				// the cross-rank split histograms.
				rec.Count("pairs.born.near", acc.near)
				rec.Count("pairs.born.far", acc.far)
				rec.Observe("pairs.born.near.rank", acc.near)
				rec.Observe("pairs.born.far.rank", acc.far)
				merged, err := c.Allreduce(acc.encode(), simmpi.Sum)
				if err != nil {
					return nil, err
				}
				return func() { acc.decode(merged) }, nil
			}, nil)
			if err != nil {
				return err
			}
			if err := saveCheckpoint(PhaseIntegrals, func() []float64 { return acc.encode() }); err != nil {
				return err
			}
			// Phase boundary: the integrals checkpoint is durable, so a
			// cancellation here (and at the boundaries below) loses no
			// completed work. Every rank evaluates the same check at the
			// same program point; any rank returning the error aborts the
			// world, so no rank can block in the next phase's collective.
			if err := spec.canceled(); err != nil {
				return err
			}
		} else if startPhase == PhaseIntegrals {
			// Resume: the merged integrals come from the snapshot; nothing to
			// recompute or communicate. (Resuming past this phase, the
			// accumulator is never read and stays nil.)
			acc = s.newBornAccum()
			acc.decode(resume.Payload)
		}

		// ---- Phase 4+5: Born radii + gather (Fig. 4 Steps 4-5) -----------
		radii := make([]float64, s.NumAtoms())
		if startPhase < PhaseRadii {
			err := heal(spanPush, func() (func(), error) {
				alo, ahi := share(s.NumAtoms())
				//lint:ignore hotalloc per-phase worker body; allocated once per Born iteration and amortized over its whole range
				s.forRange(pool, ahi-alo, func(worker int, i0, i1 int) {
					perCoreOps[coreBase+worker] += s.PushIntegralsToAtoms(acc, alo+i0, alo+i1, radii)
				})
				// Positional concatenation in octree item order: live shares
				// tile the items in rank order, and heal commits only a round
				// in which no rank was lost, so position pos is item pos.
				//lint:ignore hotalloc collective payload: simmpi slots retain the contributed slice, so each round needs a fresh buffer
				seg := make([]float64, 0, ahi-alo)
				for pos := alo; pos < ahi; pos++ {
					seg = append(seg, radii[s.TA.Items[pos]])
				}
				all, err := c.Allgatherv(seg)
				if err != nil {
					return nil, err
				}
				return func() {
					for pos, r := range all {
						radii[s.TA.Items[pos]] = r
					}
				}, nil
			}, nil)
			if err != nil {
				return err
			}
			if err := saveCheckpoint(PhaseRadii, func() []float64 { return radii }); err != nil {
				return err
			}
			if err := spec.canceled(); err != nil {
				return err
			}
		} else {
			copy(radii, resume.Payload[:s.NumAtoms()])
		}

		// ---- Phase 6+7: partial energies + reduction (Fig. 4 Steps 6-7),
		// degraded with a bound under the Degrade policy ----------------
		var agg *epolAggregates
		if startPhase < PhaseAggregates {
			osp := rec.StartSpan(rank, spanOctree)
			agg = s.buildEpolAggregates(radii)
			osp.End()
			if err := saveCheckpoint(PhaseAggregates, func() []float64 { return radii }); err != nil {
				return err
			}
			if err := spec.canceled(); err != nil {
				return err
			}
		} else {
			// The aggregates are a cheap deterministic function of the radii:
			// rebuild them rather than resurrect them from bytes, but without
			// opening a span — the restored snapshot already counted the
			// original octree-build spans.
			agg = s.buildEpolAggregates(radii)
		}
		factor := s.epolFactor()
		// One energy scratch per worker: the far kernel table, reused by
		// every far pair of the phase, and the worker's lent tape and
		// near-field state (DESIGN.md §16).
		scratch := make([]*epolScratch, p)
		for w := range scratch {
			scratch[w] = newEpolScratch(agg.M)
			scratch[w].near = &kernels[w].near
		}
		energy := 0.0
		degraded := false
		bound := 0.0
		err := heal(spanEpol, func() (func(), error) {
			// Both divisions share atom leaves here: Division splits only
			// the Born-integral phase.
			lo, hi := share(len(s.aLeaves))
			partialP := reduceRange(pool, hi-lo, newEpolPart,
				//lint:ignore hotalloc per-phase worker body; allocated once per energy round and amortized over its whole range
				func(worker, i0, i1 int, part *epolPart) {
					pass := epolPass{u: s, uAgg: agg, v: s, vAgg: agg, factor: factor, sc: scratch[worker], tally: &part.tally}
					sum := 0.0
					ops := int64(0)
					for _, v := range s.aLeaves[lo+i0 : lo+i1] {
						vs, vops := pass.leaf(v)
						sum += vs
						ops += vops
					}
					part.sum += sum
					perCoreOps[coreBase+worker] += ops
				},
				(*epolPart).merge)
			// Ordered interactions, as in PerCoreOps (see pairTally).
			rec.Count("pairs.epol.near", partialP.tally.near)
			rec.Count("pairs.epol.far", partialP.tally.far)
			rec.Observe("pairs.epol.near.rank", partialP.tally.near)
			rec.Observe("pairs.epol.far.rank", partialP.tally.far)
			//lint:ignore hotalloc single-element reduce operand; simmpi slots retain it, so each round contributes a fresh slice
			sum, err := c.Allreduce([]float64{partialP.sum}, simmpi.Sum)
			if err != nil {
				return nil, err
			}
			return func() { energy = -0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal * sum[0] }, nil
		}, func(newLost []int) {
			// Degrade: bound the energy mass the newly dead ranks' shares
			// (partitioned over the live set this iteration ran on) would
			// have contributed. A newly lost rank crashed at this
			// iteration's tick or inside its Allreduce, before its
			// contribution was combined, so its share really is missing.
			var deadAtoms []int32
			j := 0
			for _, d := range newLost {
				for j < len(lost) && lost[j] < d {
					j++
				}
				if j < len(lost) && lost[j] == d {
					continue // lost before this phase: share already re-assigned
				}
				lo, hi := liveShare(len(s.aLeaves), live, stragglers, d)
				//lint:ignore hotalloc cold degrade path; the dead share's atom count is unknown until the walk completes
				deadAtoms = append(deadAtoms, s.shareAtomsNodeNode(lo, hi)...)
			}
			bound = s.degradedBound(deadAtoms)
			degraded = true
		})
		if err != nil {
			return err
		}
		if err := saveCheckpoint(PhaseEpol, func() []float64 {
			pl := make([]float64, 0, s.NumAtoms()+3)
			pl = append(pl, radii...)
			deg := 0.0
			if degraded {
				deg = 1
			}
			return append(pl, energy, deg, bound)
		}); err != nil {
			return err
		}

		out := &outs[rank]
		out.energy = energy
		out.radii = radii
		out.degraded = degraded
		out.bound = bound
		out.recovered = recovered
		if pool != nil {
			out.steals = pool.Steals()
		}
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
	if p > 1 {
		// Balance each rank's pool counts (see balancePool): the
		// cross-rank distribution stays as measured.
		for rank := 0; rank < P; rank++ {
			copy(perCoreOps[rank*p:(rank+1)*p], balancePool(perCoreOps[rank*p:(rank+1)*p]))
		}
	}
	w := &outs[winner]
	return &Result{
		Epol: w.energy, Born: w.radii,
		Processes: P, ThreadsPerProcess: p,
		PerCoreOps: perCoreOps,
		Traffic:    traffic,
		Wall:       sw.Elapsed(),
		Steals:     w.steals,
		Degraded:   w.degraded,
		ErrorBound: w.bound,
		LostRanks:  traffic.LostRanks,
		Recovered:  w.recovered,
	}, nil
}

// reduceRange is forRange with an ordered reduction: each subrange folds
// into its own accumulator and merge combines them in ascending-range
// order via sched.ParallelReduce, so a fixed (P, p) layout reduces in a
// fixed order and the result is bitwise identical run to run regardless
// of stealing. The serial (pool == nil) path is a single fold; its
// grouping differs from the parallel tree's, so results across DIFFERENT
// layouts still agree only to rounding (as the cross-layout tests assert).
func reduceRange[T any](pool *sched.Pool, n int, mk func() T, fn func(worker, lo, hi int, acc T), merge func(dst, src T)) T {
	if pool == nil {
		acc := mk()
		if n > 0 {
			fn(0, 0, n, acc)
		}
		return acc
	}
	grain := n/(8*pool.NumWorkers()) + 1
	return sched.ParallelReduce(pool, n, grain, mk,
		func(w *sched.Worker, lo, hi int, acc T) { fn(w.ID(), lo, hi, acc) },
		merge)
}

// forRange runs fn over [0, n) either serially (pool nil: worker 0 gets
// everything) or via the rank's work-stealing pool. fn receives the
// worker index and a half-open subrange.
func (s *System) forRange(pool *sched.Pool, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if pool == nil {
		fn(0, 0, n)
		return
	}
	grain := n/(8*pool.NumWorkers()) + 1
	pool.ParallelRange(n, grain, func(w *sched.Worker, lo, hi int) {
		fn(w.ID(), lo, hi)
	})
}
