package supervise

import (
	"math"
	"reflect"
	"testing"

	"gbpolar/internal/fault"
	"gbpolar/internal/gb"
	"gbpolar/internal/obs"
)

// crashFirst builds a plan source that crashes every rank of the first n
// attempts at op and injects nothing afterwards.
func crashFirst(n int, P int, op int64) func(int) *fault.Plan {
	return func(attempt int) *fault.Plan {
		if attempt < n {
			return crashAll(P, op)
		}
		return nil
	}
}

// TestAccuracyLadderStepsFrontier pins the PR 8 relax rung: with an
// AccuracyLadder set, escalation steps down the tuner's admissible
// frontier instead of scaling ε blindly — the winning attempt runs at
// the step's full accuracy point, the step's predicted relative error is
// priced into ErrorBound, and the outcome reports both.
func TestAccuracyLadderStepsFrontier(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	steps := []RelaxStep{
		{Accuracy: gb.Accuracy{EpsBorn: 1.35, EpsEpol: 1.35, QuadOrder: 1, Order: 1}, RelError: 0.03},
		{Accuracy: gb.Accuracy{EpsBorn: 2.0, EpsEpol: 2.0, QuadOrder: 1, Order: 1}, RelError: 0.05},
	}
	rec := obs.NewRecorder(nil)
	out, err := Run(s, Spec{
		Processes:      P,
		Plan:           crashFirst(2, P, 0),
		Retries:        1,
		AccuracyLadder: steps,
		Obs:            rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rungs(out), []Rung{RungInitial, RungRetry, RungRelax}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ladder walk %v, want %v", got, want)
	}
	if !out.Degraded {
		t.Error("accuracy-shed outcome not marked Degraded")
	}
	if out.RelError != steps[0].RelError {
		t.Errorf("RelError = %v, want the step's %v", out.RelError, steps[0].RelError)
	}
	if out.Accuracy.EpsEpol != 1.35 || out.Accuracy.Order != 1 {
		t.Errorf("outcome accuracy %+v, want the first ladder step's point", out.Accuracy)
	}
	wantBound := math.Abs(out.Result.Epol) * steps[0].RelError * 1.25
	if out.Result.ErrorBound < wantBound {
		t.Errorf("ErrorBound %v does not price the shed accuracy (want ≥ %v)",
			out.Result.ErrorBound, wantBound)
	}
	last := out.Attempts[len(out.Attempts)-1]
	if last.Accuracy.EpsEpol != 1.35 {
		t.Errorf("winning attempt record carries accuracy %+v", last.Accuracy)
	}
	if last.Err != "" {
		t.Errorf("winning attempt recorded failure %q", last.Err)
	}
}

// TestAccuracyLadderSkipsTighterSteps pins the skip rule: a ladder step
// that does not loosen the energy criterion beyond the current point is
// skipped without consuming an attempt — escalation only ever relaxes.
func TestAccuracyLadderSkipsTighterSteps(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	steps := []RelaxStep{
		// Tighter than the default 0.9 point: must be skipped.
		{Accuracy: gb.Accuracy{EpsBorn: 0.45, EpsEpol: 0.45, QuadOrder: 1, Order: 1}, RelError: 0.001},
		{Accuracy: gb.Accuracy{EpsBorn: 1.35, EpsEpol: 1.35, QuadOrder: 1, Order: 1}, RelError: 0.03},
	}
	out, err := Run(s, Spec{
		Processes:      P,
		Plan:           crashFirst(2, P, 0),
		Retries:        1,
		AccuracyLadder: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rungs(out), []Rung{RungInitial, RungRetry, RungRelax}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ladder walk %v, want %v (tight step must not consume an attempt)", got, want)
	}
	if out.Accuracy.EpsEpol != 1.35 {
		t.Errorf("outcome accuracy %+v, want the loosening step's point", out.Accuracy)
	}
	if out.RelError != 0.03 {
		t.Errorf("RelError = %v, want 0.03", out.RelError)
	}
}

// TestAccuracyLadderDropsMismatchedCheckpoint pins the payload-shape
// guard: when a ladder step changes the expansion order, the checkpoint
// saved by earlier attempts cannot resume the new configuration — the
// supervisor detects it, recomputes from scratch, and counts the drop,
// instead of failing the attempt on a codec error.
func TestAccuracyLadderDropsMismatchedCheckpoint(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	steps := []RelaxStep{
		// Order 2 at the same ε is looser on the energy criterion (the
		// order-aware factor shrinks with p) but its integrals payload has
		// 9 extra floats per surface point.
		{Accuracy: gb.Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: 2}, RelError: 0.02},
	}
	rec := obs.NewRecorder(nil)
	out, err := Run(s, Spec{
		Processes: P,
		// Attempt 0 crashes at the radii tick, leaving a PhaseIntegrals
		// snapshot (at the base dipole shape) in the store; the retry
		// crashes immediately after resuming, before it can save a later
		// (order-independent) radii snapshot — so the relax step faces the
		// shape-mismatched integrals checkpoint.
		Plan: func(attempt int) *fault.Plan {
			switch attempt {
			case 0:
				return crashAll(P, 2)
			case 1:
				return crashAll(P, 0)
			}
			return nil
		},
		Retries:        1,
		AccuracyLadder: steps,
		Obs:            rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungRelax || out.Accuracy.Order != 2 {
		t.Fatalf("outcome rung=%s accuracy=%+v, want the order-2 relax step", out.Rung, out.Accuracy)
	}
	last := out.Attempts[len(out.Attempts)-1]
	if !last.DroppedCheckpoint {
		t.Error("order-changing step did not report the dropped checkpoint")
	}
	if last.ResumedFrom != gb.PhaseNone {
		t.Errorf("order-changing step resumed from %s, want from scratch", last.ResumedFrom)
	}
	if rec.Counters()["supervise.checkpoint_dropped"] == 0 {
		t.Error("supervise.checkpoint_dropped counter not incremented")
	}
}
