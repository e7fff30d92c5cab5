package supervise

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/gb"
)

// fakeClock advances by step on every read, so deadline checks see time
// passing without the test sleeping.
type fakeClock struct {
	now  time.Time
	step time.Duration
}

func (c *fakeClock) read() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

// alwaysCrash returns a Plan func killing every rank of a P-rank world
// on every injected attempt.
func alwaysCrash(P int) func(int) *fault.Plan {
	return func(int) *fault.Plan { return crashAll(P, 1) }
}

func rungs(out *Outcome) []Rung {
	rs := make([]Rung, len(out.Attempts))
	for i, a := range out.Attempts {
		rs[i] = a.Rung
	}
	return rs
}

func TestZeroDeadlineWalksTheWholeLadder(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	out, err := Run(s, Spec{
		Processes: P,
		Plan:      alwaysCrash(P),
		Retries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.DeadlineExceeded {
		t.Error("zero deadline reported DeadlineExceeded")
	}
	want := []Rung{RungInitial, RungRetry, RungRelax, RungRelax, RungDegrade, RungFallback}
	if got := rungs(out); !reflect.DeepEqual(got, want) {
		t.Errorf("ladder walk %v, want %v", got, want)
	}
	if out.Rung != RungFallback || !out.Degraded || out.Result == nil {
		t.Errorf("terminal outcome rung=%s degraded=%v", out.Rung, out.Degraded)
	}
}

// TestExpiredDeadlineBeforeFirstRetry pins the deadline edge case: the
// budget is already spent when the first attempt fails, so every
// intermediate rung is skipped and the supervisor jumps straight to the
// fallback — exactly two attempts, initial and fallback.
func TestExpiredDeadlineBeforeFirstRetry(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	clk := &fakeClock{now: time.Unix(1000, 0), step: 10 * time.Millisecond}
	out, err := Run(s, Spec{
		Processes: P,
		Plan:      alwaysCrash(P),
		Deadline:  time.Millisecond, // expired by the first post-attempt check
		Clock:     clk.read,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineExceeded {
		t.Error("expired deadline not reported")
	}
	want := []Rung{RungInitial, RungFallback}
	if got := rungs(out); !reflect.DeepEqual(got, want) {
		t.Errorf("ladder walk %v, want %v", got, want)
	}
	if out.Result == nil || out.Rung != RungFallback || !out.Degraded {
		t.Errorf("fallback outcome rung=%s degraded=%v", out.Rung, out.Degraded)
	}
}

// TestRetryBudgetExhaustedAtEveryRung pins the budget accounting: with a
// plan that kills every attempt, each rung consumes exactly its budget
// (Retries for the retry rung, one per default ladder step, one for
// degrade) before the terminal fallback completes.
func TestRetryBudgetExhaustedAtEveryRung(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	out, err := Run(s, Spec{
		Processes: P,
		Plan:      alwaysCrash(P),
		Retries:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Rung{RungInitial, RungRetry, RungRetry, RungRetry,
		RungRelax, RungRelax, RungDegrade, RungFallback}
	if got := rungs(out); !reflect.DeepEqual(got, want) {
		t.Errorf("ladder walk %v, want %v", got, want)
	}
	var points []gb.Accuracy
	for _, a := range out.Attempts {
		if a.Rung == RungRelax {
			points = append(points, a.Accuracy)
		}
	}
	base := s.Params.Accuracy
	if want := []gb.Accuracy{base.Relaxed(1.5), base.Relaxed(2.25)}; !reflect.DeepEqual(points, want) {
		t.Errorf("relax steps ran at %+v, want ε ×1.5 and ×2.25 of the system's point %+v", points, want)
	}
	for i, a := range out.Attempts[:len(out.Attempts)-1] {
		if a.Err == "" {
			t.Errorf("attempt %d (%s) recorded no failure", i, a.Rung)
		}
	}
	if last := out.Attempts[len(out.Attempts)-1]; last.Err != "" || last.Processes != 1 {
		t.Errorf("fallback record %+v, want success at P=1", last)
	}
}

// TestAuditOrderingUnderSeededBackoff pins the audit trail: attempt
// numbers are dense and ascending, the accuracy points follow the ladder,
// and the same seed reproduces the identical walk and modeled backoff
// while a different seed draws different jitter.
func TestAuditOrderingUnderSeededBackoff(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	run := func(seed int64) *Outcome {
		out, err := Run(s, Spec{
			Processes: P,
			Plan:      alwaysCrash(P),
			Retries:   2,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	if !reflect.DeepEqual(a.Attempts, b.Attempts) {
		t.Errorf("same seed produced different audit trails:\n%+v\n%+v", a.Attempts, b.Attempts)
	}
	if a.BackoffModeled != b.BackoffModeled {
		t.Errorf("same seed, different modeled backoff: %v vs %v", a.BackoffModeled, b.BackoffModeled)
	}
	if a.BackoffModeled == c.BackoffModeled {
		t.Errorf("different seeds drew identical backoff jitter %v", a.BackoffModeled)
	}
	for i, ar := range a.Attempts {
		if ar.Attempt != i {
			t.Errorf("attempt record %d carries number %d", i, ar.Attempt)
		}
		if i > 0 && ar.Rung < a.Attempts[i-1].Rung {
			t.Errorf("rung regressed at attempt %d: %s after %s", i, ar.Rung, a.Attempts[i-1].Rung)
		}
		if i > 0 && ar.Accuracy.EpsEpol < a.Attempts[i-1].Accuracy.EpsEpol {
			t.Errorf("eps regressed at attempt %d", i)
		}
	}
}

func TestCanceledContextAbandonsLadder(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	out, err := Run(s, Spec{
		Processes: P,
		Context:   ctx,
		Plan: func(attempt int) *fault.Plan {
			// The drain signal arrives while the first attempt is failing.
			cancel()
			return crashAll(P, 1)
		},
	})
	if out != nil || err == nil {
		t.Fatalf("canceled supervision returned out=%v err=%v", out, err)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap ErrCanceled and context.Canceled", err)
	}
}

func TestPreCanceledContextRunsNothing(t *testing.T) {
	s := buildSys(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(s, Spec{Processes: 2, Context: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled context: err=%v, want ErrCanceled", err)
	}
}

// TestShedStartsOnFirstLadderStep pins the overload-shedding knob: a
// clean run started on the default ladder's first step (ε ×1.5)
// completes on the first attempt, is Degraded with the step priced into
// ErrorBound, and the bound really contains the distance to the unshed
// result.
func TestShedStartsOnFirstLadderStep(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	ref, err := Run(s, Spec{Processes: P})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s, Spec{Processes: P, Shed: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungInitial || len(out.Attempts) != 1 {
		t.Errorf("shed clean run escalated: rung=%s attempts=%d", out.Rung, len(out.Attempts))
	}
	shedAcc := s.Params.Accuracy.Relaxed(1.5)
	if !out.Degraded || out.Accuracy != shedAcc || out.Result.ErrorBound <= 0 {
		t.Errorf("shed outcome degraded=%v accuracy=%+v bound=%v, want ε ×1.5 (%+v)",
			out.Degraded, out.Accuracy, out.Result.ErrorBound, shedAcc)
	}
	if want := s.Params.Accuracy.EpsEpol * 0.5; out.RelError != want {
		t.Errorf("shed step predicts relative error %v, want ε·(1.5−1) = %v", out.RelError, want)
	}
	if diff := math.Abs(out.Result.Epol - ref.Result.Epol); diff > out.Result.ErrorBound {
		t.Errorf("shed Epol %v vs %v outside bound %v",
			out.Result.Epol, ref.Result.Epol, out.Result.ErrorBound)
	}
	// The relax rung skips the shed step: the walk under a killing plan
	// never re-runs ε ×1.5.
	out2, err := Run(s, Spec{
		Processes: P,
		Shed:      true,
		Plan:      alwaysCrash(P),
		Retries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	relaxed := 0
	for _, a := range out2.Attempts {
		if a.Rung == RungRelax {
			relaxed++
			if a.Accuracy.EpsEpol <= shedAcc.EpsEpol {
				t.Errorf("relax rung re-ran the shed point: eps %v", a.Accuracy.EpsEpol)
			}
		}
	}
	if relaxed != 1 {
		t.Errorf("relax rung ran %d steps, want 1 (×2.25 only)", relaxed)
	}
}

// encodeSnap builds a minimal valid encoded checkpoint for store tests.
func encodeSnap(phase gb.CheckpointPhase, tag uint32) []byte {
	return (&gb.Checkpoint{Phase: phase, Processes: 2, ConfigTag: tag,
		Payload: []float64{1, 2, 3}}).Encode()
}

func TestDirStorePrune(t *testing.T) {
	dir := t.TempDir()
	d := &DirStore{Dir: dir}
	// Two config tags interleaved in one directory, a corrupt snapshot,
	// and a stale temp file.
	if err := d.Save(gb.PhaseIntegrals, encodeSnap(gb.PhaseIntegrals, 0xAAAA)); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(gb.PhaseRadii, encodeSnap(gb.PhaseRadii, 0xAAAA)); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(gb.PhaseEpol, encodeSnap(gb.PhaseEpol, 0xBBBB)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "phase-9-bogus.gbcp"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-stale"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := d.Prune(1)
	if err != nil {
		t.Fatal(err)
	}
	// Evicted: the corrupt file, the stale temp, and tag AAAA's older
	// integrals snapshot. Kept: AAAA's radii and BBBB's epol.
	if removed != 3 {
		t.Errorf("Prune removed %d files, want 3", removed)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range left {
		names[e.Name()] = true
	}
	if len(names) != 2 || !names["phase-2-radii.gbcp"] || !names["phase-4-epol.gbcp"] {
		t.Errorf("surviving files %v, want radii (tag AAAA) and epol (tag BBBB)", names)
	}
	ck, err := d.Latest()
	if err != nil || ck == nil || ck.Phase != gb.PhaseEpol {
		t.Errorf("Latest after prune = %v, %v", ck, err)
	}
	// Idempotent: a second prune removes nothing.
	if removed, err := d.Prune(1); err != nil || removed != 0 {
		t.Errorf("second Prune removed %d, err %v", removed, err)
	}
	// Missing directory is a no-op.
	if removed, err := (&DirStore{Dir: filepath.Join(dir, "absent")}).Prune(1); err != nil || removed != 0 {
		t.Errorf("absent-dir Prune removed %d, err %v", removed, err)
	}
}
