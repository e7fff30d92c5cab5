// Package supervise is the run-level robustness layer above the gb
// drivers: it owns a wall-clock deadline, a retry budget with seeded
// exponential backoff and jitter, phase-checkpoint persistence, and an
// accuracy-shedding escalation ladder. Where internal/gb heals WITHIN a
// run (heal-by-redo over the live set), the supervisor decides what to
// do when a whole run attempt fails — crashed quorum, persistent
// corruption — and trades accuracy for completion one deliberate step
// at a time:
//
//	retry     same configuration, resumed from the newest checkpoint
//	shrink    resume with membership shrunk to the checkpoint's live set
//	relax     move one step down the accuracy ladder (Spec.AccuracyLadder,
//	          or ε ×1.5 then ×2.25 of the system's point), price the
//	          step's predicted error into the returned ErrorBound, resume
//	degrade   accept a partial energy with the rigorous missing-mass
//	          bound (gb's Degrade policy)
//	fallback  serial single-rank run, no injection, resumed from the
//	          newest checkpoint — always completes, always Degraded
//
// Every attempt and escalation is recorded as supervise.* counters and
// rank-0 flight events on the supervisor's recorder, so a post-mortem
// shows not just that a run finished but what it cost to finish.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/gb"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
)

// ErrCanceled marks a supervised computation stopped by Spec.Context —
// the ladder is abandoned immediately (no fallback: a draining caller
// wants the checkpoint kept for resume, not a best-effort completion).
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) both
// hold on the returned error.
var ErrCanceled = errors.New("supervise: canceled")

// Rung identifies a level of the escalation ladder.
type Rung int

const (
	// RungInitial is the first attempt at the requested configuration.
	RungInitial Rung = iota
	// RungRetry re-runs the same configuration, resumed from the newest
	// checkpoint, after a modeled backoff.
	RungRetry
	// RungShrink resumes with the process count shrunk to the
	// checkpoint's agreed live membership.
	RungShrink
	// RungRelax moves one step down the accuracy ladder and prices the
	// step's predicted error into ErrorBound.
	RungRelax
	// RungDegrade switches to gb's Degrade policy: accept a partial
	// energy with its rigorous missing-mass bound.
	RungDegrade
	// RungFallback is the terminal rung: a serial single-rank run with no
	// injection, resumed from the newest checkpoint. It cannot fail and
	// its result is always marked Degraded.
	RungFallback
)

// String implements fmt.Stringer.
func (r Rung) String() string {
	switch r {
	case RungInitial:
		return "initial"
	case RungRetry:
		return "retry"
	case RungShrink:
		return "shrink"
	case RungRelax:
		return "relax"
	case RungDegrade:
		return "degrade"
	case RungFallback:
		return "fallback"
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// RelaxStep is one step of the accuracy-shedding ladder: a full
// gb.Accuracy point and its predicted relative Epol error. The tuner
// (internal/tune) hands the supervisor its admissible frontier, and the
// relax rung steps DOWN it — cheaper points, larger predicted error.
// RelError prices the shed accuracy into the returned ErrorBound as
// |Epol|·RelError·1.25 (the slack gb's degraded bound uses too).
type RelaxStep struct {
	Accuracy gb.Accuracy
	RelError float64
}

// Store persists checkpoints across attempts: a gb.CheckpointSink the
// runs save into plus retrieval of the newest (highest-phase) snapshot.
// Latest returns (nil, nil) when nothing has been saved.
type Store interface {
	gb.CheckpointSink
	Latest() (*gb.Checkpoint, error)
}

// Spec configures one supervised computation.
type Spec struct {
	// Processes and ThreadsPerProcess are the requested layout.
	Processes         int
	ThreadsPerProcess int
	// Policy is the in-run fault policy of the early rungs (the degrade
	// rung forces gb.Degrade regardless).
	Policy gb.FaultPolicy
	// Plan supplies the fault-injection plan for each attempt (attempt
	// numbers are global across rungs, starting at 0). Nil means no
	// injection. The fallback rung never injects.
	Plan func(attempt int) *fault.Plan
	// Deadline bounds the supervised computation's wall time. When it
	// expires, remaining rungs are skipped and the supervisor jumps
	// straight to the fallback. Zero means no deadline.
	Deadline time.Duration
	// Retries is the retry-rung budget (default 2).
	Retries int
	// BackoffBase is the first retry's modeled backoff, doubled per retry
	// with seeded jitter in [1,2) (default 2ms). The backoff is modeled
	// (accumulated in Outcome.BackoffModeled), not slept: it prices the
	// protocol without making the test suite wait for it.
	BackoffBase time.Duration
	// Seed seeds the jitter generator — same seed, same ladder walk.
	Seed int64
	// AccuracyLadder is the relax rung's schedule, typically the tuner's
	// admissible frontier: each step is a full accuracy point plus its
	// predicted relative error (see RelaxStep). Empty means the default
	// two steps, the system's point with both ε scaled by 1.5 and then
	// 2.25 (see defaultLadder). Steps are tried in order; steps that do
	// not loosen the energy criterion beyond the current point are
	// skipped (escalation only ever relaxes further). A step that changes
	// the expansion order changes the checkpoint payload shape — the
	// supervisor detects the mismatch and resumes from scratch instead of
	// failing the attempt.
	AccuracyLadder []RelaxStep
	// Store persists checkpoints across attempts (default: an in-memory
	// MemStore, so even without explicit storage a retry resumes rather
	// than recomputes).
	Store Store
	// Obs is the supervisor-level recorder: supervise.* counters,
	// escalation flight events. Per-attempt run recorders are created
	// fresh internally (the winner's is returned in Outcome.Recorder).
	Obs *obs.Recorder
	// Trace is the request identity of the job this computation serves.
	// Each attempt's run recorder carries it with Attempt set to the
	// attempt's 1-based trace number, so every span of every rung — and
	// every trace file TraceSink persists — resolves back to the
	// request. On input, Trace.Attempt counts the attempts earlier
	// supervised computations of the same job already made (0 for the
	// first): attempt n of this computation is numbered
	// Trace.Attempt + n + 1, so a job resumed in a later process goes on
	// numbering where the earlier one stopped. The zero value disables
	// stamping.
	Trace obs.TraceContext
	// TraceSink, when set, receives every attempt's run recorder right
	// after the attempt ends — successful, failed, or canceled; the gb
	// drivers have force-closed the spans by then, so the recorder is
	// always export-ready. The serving layer persists each one next to
	// the job's checkpoints. attempt is the trace number, matching the
	// recorder's TraceContext.Attempt.
	TraceSink func(attempt int, rec *obs.Recorder)
	// Clock reads wall time for the deadline (default time.Now;
	// injectable for tests).
	Clock func() time.Time
	// Context cancels the supervised computation cooperatively: it is
	// checked before every attempt and passed into each run (gb checks
	// it at phase boundaries, after the completed phase's checkpoint is
	// durable). On cancellation Run returns ErrCanceled instead of
	// escalating — the store keeps the newest snapshot, so a later
	// supervised run over the same store resumes bitwise-identically.
	// Nil means never canceled.
	Context context.Context
	// Shed starts the first attempt on the ladder's first step. This is
	// the serving layer's overload-shedding knob: under queue pressure a
	// request trades priced accuracy (the step's RelError lands in
	// ErrorBound and the Outcome is Degraded) for admission capacity. The
	// relax rung then skips the steps that are not looser than that one.
	Shed bool
}

// AttemptRecord describes one attempt of the ladder walk.
type AttemptRecord struct {
	// Attempt is the global attempt number, starting at 0.
	Attempt int
	// Rung is the ladder rung the attempt ran at.
	Rung Rung
	// Processes is the attempt's process count.
	Processes int
	// Accuracy is the accuracy point the attempt ran at.
	Accuracy gb.Accuracy
	// ResumedFrom is the checkpoint phase the attempt resumed from
	// (gb.PhaseNone = from scratch).
	ResumedFrom gb.CheckpointPhase
	// DroppedCheckpoint reports that a stored snapshot could not resume
	// this attempt's configuration (e.g. the expansion order changed its
	// payload shape) and the attempt recomputed from scratch.
	DroppedCheckpoint bool
	// Err is the attempt's failure, "" on success.
	Err string
}

// Outcome is the supervised result.
type Outcome struct {
	// Result is the final run's result. Never nil: the fallback rung
	// cannot fail.
	Result *gb.Result
	// Rung is the ladder rung that produced Result.
	Rung Rung
	// Accuracy is the final attempt's accuracy point (the system's own
	// point, or the ladder step it was shed or relaxed to).
	Accuracy gb.Accuracy
	// RelError is the final ladder step's predicted relative error (0
	// when no accuracy step was taken); it has already been priced into
	// Result.ErrorBound.
	RelError float64
	// Degraded reports a best-effort result: either the run itself
	// degraded (partial energy) or accuracy was shed on the way (a
	// ladder step, fallback). Result.ErrorBound then bounds the damage.
	Degraded bool
	// Attempts is the full ladder walk, in order.
	Attempts []AttemptRecord
	// BackoffModeled is the total modeled (not slept) retry backoff.
	BackoffModeled time.Duration
	// DeadlineExceeded reports that the deadline forced the jump to the
	// fallback rung.
	DeadlineExceeded bool
	// Recorder is the successful attempt's run recorder: restored
	// snapshot plus the final attempt's work — approximately the whole
	// logical run. Use it for metrics/trace export.
	Recorder *obs.Recorder
}

// defaultLadder is the relax rung's schedule when Spec.AccuracyLadder is
// empty: acc with both ε scaled by 1.5 and then 2.25, the bin width kept.
// The octree truncation error of both phases is first-order in ε, so a
// factor-f step predicts a relative error of ε_Epol·(f−1). This is a
// first-order accuracy model (the same one the ε parameters themselves
// express), not a worst-case theorem like the degraded bound.
func defaultLadder(acc gb.Accuracy) []RelaxStep {
	steps := make([]RelaxStep, 0, 2)
	for _, f := range [...]float64{1.5, 2.25} {
		steps = append(steps, RelaxStep{Accuracy: acc.Relaxed(f), RelError: acc.EpsEpol * (f - 1)})
	}
	return steps
}

// relErrPenalty prices a ladder step's predicted relative error into the
// bound, widened by the same 1.25 slack gb.degradedBound uses.
func relErrPenalty(epol, relErr float64) float64 {
	if relErr <= 0 {
		return 0
	}
	mag := epol
	if mag < 0 {
		mag = -mag
	}
	return mag * relErr * 1.25
}

// Run executes one supervised computation of s.
func Run(s *gb.System, spec Spec) (*Outcome, error) {
	if spec.Processes < 1 {
		return nil, fmt.Errorf("supervise: Processes=%d must be at least 1", spec.Processes)
	}
	retries := spec.Retries
	if retries <= 0 {
		retries = 2
	}
	backoffBase := spec.BackoffBase
	if backoffBase <= 0 {
		backoffBase = 2 * time.Millisecond
	}
	store := spec.Store
	if store == nil {
		store = NewMemStore()
	}
	clock := spec.Clock
	if clock == nil {
		clock = time.Now
	}
	var deadline time.Time
	if spec.Deadline > 0 {
		deadline = clock().Add(spec.Deadline)
	}
	ladder := spec.AccuracyLadder
	if len(ladder) == 0 {
		ladder = defaultLadder(s.Params.Accuracy)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	rec := spec.Obs

	out := &Outcome{}
	curSys := s
	curP := spec.Processes
	curRelErr := 0.0
	// step moves the following attempts onto a ladder point.
	step := func(st RelaxStep) error {
		ws, err := s.WithAccuracy(st.Accuracy)
		if err != nil {
			return fmt.Errorf("supervise: accuracy ladder step: %w", err)
		}
		curSys, curRelErr = ws, st.RelError
		return nil
	}
	if spec.Shed {
		if err := step(ladder[0]); err != nil {
			return nil, err
		}
		rec.Count("supervise.preshed", 1)
		rec.Event(0, "supervise", fmt.Sprintf("pre-shed: start at eps %.3g", curSys.Params.Accuracy.EpsEpol))
	}

	// expire reports a spent deadline and records the jump to the
	// fallback it forces.
	expire := func() bool {
		if deadline.IsZero() || !clock().After(deadline) {
			return false
		}
		out.DeadlineExceeded = true
		rec.Count("supervise.deadline_exceeded", 1)
		return true
	}
	canceled := func() error {
		if spec.Context == nil {
			return nil
		}
		if err := spec.Context.Err(); err != nil {
			rec.Count("supervise.canceled", 1)
			return fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		return nil
	}

	// attempt runs one rung. On success it finalizes out and returns true.
	attemptNo := 0
	attempt := func(rung Rung, policy gb.FaultPolicy, inject bool) (bool, error) {
		if err := canceled(); err != nil {
			return false, err
		}
		n := attemptNo
		attemptNo++
		acc := curSys.Params.Accuracy
		rec.Count("supervise.attempts", 1)
		rec.Event(0, "supervise", fmt.Sprintf("attempt %d rung=%s P=%d eps=%.3g", n, rung, curP, acc.EpsEpol))

		var cfg *gb.FaultConfig
		if inject && spec.Plan != nil {
			cfg = &gb.FaultConfig{Plan: spec.Plan(n), Policy: policy, ForceProtocol: true}
		} else {
			cfg = &gb.FaultConfig{Policy: policy, ForceProtocol: true}
		}
		resume, err := store.Latest()
		if err != nil {
			return false, fmt.Errorf("supervise: reading checkpoint store: %w", err)
		}
		dropped := false
		if resume != nil {
			if rerr := curSys.CanResume(resume); rerr != nil {
				// The stored snapshot cannot resume this configuration —
				// typically a ladder step changed the expansion order and
				// with it the integral payload shape. Recompute from
				// scratch instead of failing the attempt.
				resume = nil
				dropped = true
				rec.Count("supervise.checkpoint_dropped", 1)
				rec.Event(0, "supervise", fmt.Sprintf("attempt %d drops stale checkpoint: %v", n, rerr))
			}
		}
		// The attempt recorder reads time through the perf boundary so its
		// spans carry real durations — without a clock every trace the
		// sink persists would be zero-width. Summary stays deterministic
		// either way (it never renders timestamps).
		runRec := obs.NewRecorder(perf.StartTimer().Elapsed)
		tc := spec.Trace
		traceNo := spec.Trace.Attempt + n + 1
		if !tc.IsZero() {
			tc.Attempt = traceNo
			runRec.SetLabel(fmt.Sprintf("%s attempt %d", tc.Job, traceNo))
		}
		res, err := curSys.Run(gb.RunSpec{
			Processes:         curP,
			ThreadsPerProcess: spec.ThreadsPerProcess,
			Faults:            cfg,
			Obs:               runRec,
			Trace:             tc,
			Checkpoint:        store,
			Resume:            resume,
			Ctx:               spec.Context,
		})
		if spec.TraceSink != nil {
			spec.TraceSink(traceNo, runRec)
		}
		ar := AttemptRecord{
			Attempt: n, Rung: rung, Processes: curP,
			Accuracy: acc, DroppedCheckpoint: dropped,
		}
		if resume != nil {
			ar.ResumedFrom = resume.Phase
		}
		if err != nil {
			ar.Err = err.Error()
			out.Attempts = append(out.Attempts, ar)
			rec.Count("supervise.failures", 1)
			rec.Event(0, "supervise", fmt.Sprintf("attempt %d failed: %v", n, err))
			// A cancellation abandons the ladder: the run already saved
			// its newest phase snapshot, and the caller (a draining
			// daemon) will resume it in a later process.
			if errors.Is(err, gb.ErrRunCanceled) {
				return false, fmt.Errorf("%w: %w", ErrCanceled, err)
			}
			if cerr := canceled(); cerr != nil {
				return false, cerr
			}
			return false, nil
		}
		out.Attempts = append(out.Attempts, ar)
		res.ErrorBound += relErrPenalty(res.Epol, curRelErr)
		out.Result = res
		out.Rung = rung
		out.Accuracy = acc
		out.RelError = curRelErr
		out.Degraded = res.Degraded || curSys != s || rung == RungFallback
		out.Result.Degraded = out.Degraded
		out.Recorder = runRec
		rec.Count("supervise.successes", 1)
		return true, nil
	}

	escalate := func(to Rung) {
		rec.Count("supervise.escalations", 1)
		rec.Event(0, "supervise", "escalate to "+to.String())
	}

	fallback := func() (*Outcome, error) {
		escalate(RungFallback)
		curP = 1
		// The fallback keeps the current (possibly shed) system: its
		// checkpoints — saved at that point — stay internally consistent,
		// and the step's price stays in the bound.
		ok, err := attempt(RungFallback, gb.Recover, false)
		if err != nil {
			return nil, err
		}
		if !ok {
			// A serial run with no injection cannot crash or time out; a
			// failure here means the environment itself is broken.
			return nil, fmt.Errorf("supervise: fallback attempt failed: %s", out.Attempts[len(out.Attempts)-1].Err)
		}
		return out, nil
	}

	// Rung: initial.
	ok, err := attempt(RungInitial, spec.Policy, true)
	if err != nil {
		return nil, err
	}
	if ok {
		return out, nil
	}

	// Rung: retry (budgeted, backoff modeled).
	for r := 0; r < retries; r++ {
		if expire() {
			return fallback()
		}
		backoff := backoffBase << uint(r)
		backoff += time.Duration(rng.Int63n(int64(backoff))) // jitter in [1,2)·base
		out.BackoffModeled += backoff
		if r == 0 {
			escalate(RungRetry)
		}
		if ok, err := attempt(RungRetry, spec.Policy, true); err != nil || ok {
			return out, err
		}
	}

	// Rung: shrink to the checkpoint's live membership.
	if expire() {
		return fallback()
	}
	if ck, err := store.Latest(); err == nil && ck != nil && len(ck.Live) > 0 && len(ck.Live) < curP {
		escalate(RungShrink)
		curP = len(ck.Live)
		if ok, err := attempt(RungShrink, spec.Policy, true); err != nil || ok {
			return out, err
		}
	}

	// Rung: relax, one ladder step per attempt, skipping the steps that do
	// not loosen the energy criterion beyond the current point (a shed
	// start's own step among them).
	for _, st := range ladder {
		if st.Accuracy.OpeningFactor() >= curSys.Params.Accuracy.OpeningFactor() {
			continue
		}
		if expire() {
			return fallback()
		}
		escalate(RungRelax)
		if err := step(st); err != nil {
			return nil, err
		}
		if ok, err := attempt(RungRelax, spec.Policy, true); err != nil || ok {
			return out, err
		}
	}

	// Rung: degrade — accept a partial energy with its rigorous bound.
	if !expire() {
		escalate(RungDegrade)
		if ok, err := attempt(RungDegrade, gb.Degrade, true); err != nil || ok {
			return out, err
		}
	}

	return fallback()
}
