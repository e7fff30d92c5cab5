package supervise

import (
	"math"
	"os"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/surface"
)

func buildSys(t *testing.T, n int) *gb.System {
	t.Helper()
	m := molecule.Globule("supervised", n, 7)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := gb.NewSystem(m, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crashAll returns a plan killing every rank of a P-rank world at op.
func crashAll(P int, op int64) *fault.Plan {
	pl := &fault.Plan{}
	for r := 0; r < P; r++ {
		pl.Events = append(pl.Events, fault.Event{Kind: fault.Crash, Rank: r, AtOp: op})
	}
	return pl
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

func TestCleanRunStaysOnInitialRung(t *testing.T) {
	s := buildSys(t, 300)
	out, err := Run(s, Spec{Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungInitial || out.Degraded || len(out.Attempts) != 1 {
		t.Fatalf("clean run escalated: rung=%s degraded=%v attempts=%d", out.Rung, out.Degraded, len(out.Attempts))
	}
	serial := mustRun(t, s, gb.RunSpec{})
	if rel := relDiff(out.Result.Epol, serial.Epol); rel > 1e-10 {
		t.Errorf("supervised Epol off serial by %v", rel)
	}
	if out.Recorder == nil || out.Recorder.Summary() == "" {
		t.Error("no run recorder returned")
	}
}

func TestRetryResumesFromCheckpoint(t *testing.T) {
	// The first attempt's quorum dies entering the energy phase — after
	// the aggregates checkpoint. The retry must resume there, complete,
	// and be bitwise the uninterrupted run.
	const P = 4
	s := buildSys(t, 300)

	ref, err := s.Run(gb.RunSpec{Processes: P})
	if err != nil {
		t.Fatal(err)
	}

	out, err := Run(s, Spec{
		Processes: P,
		Plan: func(attempt int) *fault.Plan {
			if attempt == 0 {
				return crashAll(P, 4)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungRetry {
		t.Fatalf("rung = %s, want retry", out.Rung)
	}
	if out.Degraded || out.Result.Degraded {
		t.Error("successful resumed retry marked Degraded")
	}
	if out.Result.Epol != ref.Epol {
		t.Errorf("resumed retry Epol %v != uninterrupted %v", out.Result.Epol, ref.Epol)
	}
	if len(out.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want 2", out.Attempts)
	}
	if out.Attempts[1].ResumedFrom != gb.PhaseAggregates {
		t.Errorf("retry resumed from %s, want aggregates", out.Attempts[1].ResumedFrom)
	}
	if out.BackoffModeled <= 0 {
		t.Error("no backoff modeled for the retry")
	}
}

func TestShrinkRungUsesCheckpointMembership(t *testing.T) {
	// The store holds an aggregates checkpoint whose live set is
	// {0, 1}; every full-width attempt dies instantly. The shrink rung
	// must resume at P = 2 and complete.
	const P = 4
	s := buildSys(t, 300)

	// Capture the run's aggregates snapshot, then shrink its membership.
	store := NewMemStore()
	full, err := s.Run(gb.RunSpec{Processes: P, Checkpoint: rewindSink{store, gb.PhaseAggregates}})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store.Latest()
	if err != nil || ck == nil || ck.Phase != gb.PhaseAggregates {
		t.Fatalf("rewound store latest = %+v, %v", ck, err)
	}
	ck.Live = []int{0, 1}
	ck.Lost = []int{2, 3}
	if err := store.Save(ck.Phase, ck.Encode()); err != nil {
		t.Fatal(err)
	}

	out, err := Run(s, Spec{
		Processes: P,
		Retries:   1,
		Store:     store,
		Plan: func(attempt int) *fault.Plan {
			if attempt <= 1 { // initial + the single retry
				return crashAll(P, 0)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungShrink {
		t.Fatalf("rung = %s, want shrink (attempts %+v)", out.Rung, out.Attempts)
	}
	last := out.Attempts[len(out.Attempts)-1]
	if last.Processes != 2 || last.ResumedFrom != gb.PhaseAggregates {
		t.Errorf("shrink attempt = %+v, want P=2 resumed from aggregates", last)
	}
	if rel := relDiff(out.Result.Epol, full.Epol); rel > 1e-9 {
		t.Errorf("shrunk resume Epol off by %v", rel)
	}
}

// rewindSink forwards saves up to and including maxPhase, so a store can
// be left holding a mid-run snapshot of a completed run.
type rewindSink struct {
	dst      Store
	maxPhase gb.CheckpointPhase
}

func (r rewindSink) Save(phase gb.CheckpointPhase, encoded []byte) error {
	if phase > r.maxPhase {
		return nil
	}
	return r.dst.Save(phase, encoded)
}

func TestQuorumLossDescendsToDegradedFallback(t *testing.T) {
	// Every injected attempt dies at op 0, before any checkpoint exists:
	// retries, relaxed-ε attempts, and the degrade attempt all fail. The
	// fallback must still return a finite, Degraded result instead of an
	// error — the tentpole acceptance scenario.
	const P = 4
	s := buildSys(t, 300)
	rec := obs.NewRecorder(nil)
	out, err := Run(s, Spec{
		Processes: P,
		Obs:       rec,
		Plan:      func(int) *fault.Plan { return crashAll(P, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungFallback {
		t.Fatalf("rung = %s, want fallback (attempts %+v)", out.Rung, out.Attempts)
	}
	if !out.Degraded || !out.Result.Degraded {
		t.Error("fallback result not marked Degraded")
	}
	if !(out.Result.ErrorBound > 0) || math.IsInf(out.Result.ErrorBound, 0) || math.IsNaN(out.Result.ErrorBound) {
		t.Errorf("ErrorBound = %v, want finite and positive (ε was relaxed on the way down)", out.Result.ErrorBound)
	}
	serial := mustRun(t, s, gb.RunSpec{})
	if math.Abs(out.Result.Epol-serial.Epol) > out.Result.ErrorBound+1e-9*math.Abs(serial.Epol) {
		t.Errorf("|Epol−serial| = %v exceeds bound %v", math.Abs(out.Result.Epol-serial.Epol), out.Result.ErrorBound)
	}
	if out.Accuracy.EpsEpol <= s.Params.Accuracy.EpsEpol {
		t.Errorf("outcome eps %v, want relaxed beyond %v", out.Accuracy.EpsEpol, s.Params.Accuracy.EpsEpol)
	}
	counters := rec.Counters()
	if counters["supervise.attempts"] < 5 {
		t.Errorf("supervise.attempts = %d, want the whole ladder walked", counters["supervise.attempts"])
	}
	if counters["supervise.escalations"] < 3 {
		t.Errorf("supervise.escalations = %d, want at least retry→relax→fallback", counters["supervise.escalations"])
	}
}

func TestSupervisorIsDeterministic(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	run := func() *Outcome {
		out, err := Run(s, Spec{
			Processes: P,
			Seed:      42,
			Plan:      func(int) *fault.Plan { return crashAll(P, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.BackoffModeled != b.BackoffModeled {
		t.Errorf("backoff differs across same-seed walks: %v vs %v", a.BackoffModeled, b.BackoffModeled)
	}
	if len(a.Attempts) != len(b.Attempts) || a.Rung != b.Rung {
		t.Errorf("ladder walk differs: %d/%s vs %d/%s", len(a.Attempts), a.Rung, len(b.Attempts), b.Rung)
	}
	if a.Result.Epol != b.Result.Epol {
		t.Errorf("same-seed supervised Epol differs: %v vs %v", a.Result.Epol, b.Result.Epol)
	}
}

func TestDeadlineJumpsToFallback(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	// A clock that leaps an hour per reading: the deadline is already
	// history when the first retry would start.
	now := time.Unix(0, 0)
	clock := func() time.Time {
		now = now.Add(time.Hour)
		return now
	}
	out, err := Run(s, Spec{
		Processes: P,
		Deadline:  time.Minute,
		Clock:     clock,
		Plan:      func(int) *fault.Plan { return crashAll(P, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineExceeded {
		t.Error("DeadlineExceeded not set")
	}
	if out.Rung != RungFallback {
		t.Errorf("rung = %s, want fallback", out.Rung)
	}
	if len(out.Attempts) != 2 {
		t.Errorf("attempts = %+v, want initial + fallback only", out.Attempts)
	}
	if !out.Degraded {
		t.Error("deadline fallback not marked Degraded")
	}
}

func TestDirStore(t *testing.T) {
	s := buildSys(t, 300)
	dir := t.TempDir()
	store := &DirStore{Dir: dir}
	if ck, err := store.Latest(); err != nil || ck != nil {
		t.Fatalf("empty store Latest = %+v, %v", ck, err)
	}
	if _, err := s.Run(gb.RunSpec{Processes: 2, Checkpoint: store}); err != nil {
		t.Fatal(err)
	}
	ck, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Phase != gb.PhaseEpol {
		t.Fatalf("Latest phase = %v, want epol", ck)
	}
	// Damage the newest file: Latest must fall back to the previous phase
	// instead of failing or trusting the bytes.
	if err := writeFileGarbage(store.path(gb.PhaseEpol)); err != nil {
		t.Fatal(err)
	}
	ck, err = store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Phase != gb.PhaseAggregates {
		t.Fatalf("Latest after damage = %+v, want aggregates", ck)
	}
}

func writeFileGarbage(path string) error {
	return os.WriteFile(path, []byte("truncated or corrupt checkpoint bytes"), 0o644)
}

func TestMemStoreKeepsNewestPhase(t *testing.T) {
	s := buildSys(t, 300)
	store := NewMemStore()
	if _, err := s.Run(gb.RunSpec{Processes: 2, Checkpoint: store}); err != nil {
		t.Fatal(err)
	}
	ck, _ := store.Latest()
	if ck.Phase != gb.PhaseEpol {
		t.Fatalf("phase = %s", ck.Phase)
	}
	// An earlier-phase save (a resumed run re-entering mid-pipeline) must
	// not regress the stored snapshot.
	if err := store.Save(gb.PhaseIntegrals, []byte("ignored")); err != nil {
		t.Fatal(err)
	}
	ck, _ = store.Latest()
	if ck == nil || ck.Phase != gb.PhaseEpol {
		t.Fatal("MemStore regressed to an earlier phase")
	}
}

// TestTraceThreadedThroughAttempts: the Spec's trace identity lands on
// every attempt's run recorder with the 1-based attempt number, the
// TraceSink fires for failed and successful attempts alike, and every
// sunk recorder has a balanced (fully closed) span tree with spans from
// every rank.
func TestTraceThreadedThroughAttempts(t *testing.T) {
	const P = 3
	s := buildSys(t, 300)
	type sunk struct {
		attempt int
		rec     *obs.Recorder
	}
	var got []sunk
	out, err := Run(s, Spec{
		Processes: P,
		Trace:     obs.TraceContext{TraceID: "t-trace", Job: "j-trace", Tenant: "acme"},
		TraceSink: func(attempt int, rec *obs.Recorder) {
			got = append(got, sunk{attempt, rec})
		},
		Plan: func(attempt int) *fault.Plan {
			if attempt == 0 {
				return crashAll(P, 4)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungRetry {
		t.Fatalf("rung = %s, want retry", out.Rung)
	}
	if len(got) != 2 {
		t.Fatalf("sink fired %d times, want 2 (failed initial + successful retry)", len(got))
	}
	for i, sk := range got {
		if sk.attempt != i+1 {
			t.Errorf("sink %d: attempt = %d, want %d", i, sk.attempt, i+1)
		}
		tc := sk.rec.Trace()
		if tc.TraceID != "t-trace" || tc.Job != "j-trace" || tc.Tenant != "acme" || tc.Attempt != i+1 {
			t.Errorf("sink %d: trace = %+v", i, tc)
		}
		if open := sk.rec.OpenSpans(); open != 0 {
			t.Errorf("sink %d: %d spans left open", i, open)
		}
	}
	// The winner's recorder is the last sunk one, and its spans carry
	// real (clocked) durations and cover every rank.
	if out.Recorder != got[len(got)-1].rec {
		t.Error("Outcome.Recorder is not the last sunk recorder")
	}
	ranks := map[int]bool{}
	var maxEnd time.Duration
	for _, sp := range out.Recorder.Spans() {
		ranks[sp.Rank] = true
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
	}
	for r := 0; r < P; r++ {
		if !ranks[r] {
			t.Errorf("winner trace lacks spans from rank %d", r)
		}
	}
	if maxEnd <= 0 {
		t.Error("attempt recorder has zero-width spans: the perf clock is not wired")
	}
}

// TestNoTraceMeansNoStamp: without a Spec.Trace, attempt recorders stay
// untraced (and the sink still fires when set).
func TestNoTraceMeansNoStamp(t *testing.T) {
	s := buildSys(t, 200)
	fired := 0
	out, err := Run(s, Spec{
		Processes: 2,
		TraceSink: func(attempt int, rec *obs.Recorder) {
			fired++
			if !rec.Trace().IsZero() {
				t.Errorf("attempt %d recorder carries a trace: %+v", attempt, rec.Trace())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 || len(out.Attempts) != 1 {
		t.Errorf("sink fired %d times over %d attempts", fired, len(out.Attempts))
	}
}

// A stored snapshot that decodes (its CRC holds) but carries an unusable
// radius, energy or bound must be dropped and the job recomputed from
// scratch, never resumed into a NaN energy or a failed attempt.
func TestBadValueCheckpointIsDroppedAndRecomputed(t *testing.T) {
	const P = 2
	s := buildSys(t, 300)
	clean, err := Run(s, Spec{Processes: P})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		phase gb.CheckpointPhase
		slot  func(n int) int // payload index to damage
	}{
		{gb.PhaseRadii, func(int) int { return 0 }},
		{gb.PhaseAggregates, func(n int) int { return n - 1 }},
		{gb.PhaseEpol, func(n int) int { return n }}, // the energy
	} {
		store := NewMemStore()
		if _, err := s.Run(gb.RunSpec{Processes: P, Checkpoint: rewindSink{store, c.phase}}); err != nil {
			t.Fatal(err)
		}
		ck, err := store.Latest()
		if err != nil || ck == nil || ck.Phase != c.phase {
			t.Fatalf("%s: store latest = %+v, %v", c.phase, ck, err)
		}
		ck.Payload[c.slot(s.NumAtoms())] = math.NaN()
		if err := store.Save(ck.Phase, ck.Encode()); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(nil)
		out, err := Run(s, Spec{Processes: P, Store: store, Obs: rec})
		if err != nil {
			t.Fatalf("%s: %v", c.phase, err)
		}
		first := out.Attempts[0]
		if !first.DroppedCheckpoint || first.ResumedFrom != gb.PhaseNone {
			t.Errorf("%s: first attempt dropped=%v resumed from %s, want a drop and a recompute",
				c.phase, first.DroppedCheckpoint, first.ResumedFrom)
		}
		if rec.Counters()["supervise.checkpoint_dropped"] != 1 {
			t.Errorf("%s: supervise.checkpoint_dropped = %d, want 1", c.phase, rec.Counters()["supervise.checkpoint_dropped"])
		}
		if out.Result.Epol != clean.Result.Epol {
			t.Errorf("%s: recomputed Epol %v, clean run %v", c.phase, out.Result.Epol, clean.Result.Epol)
		}
	}
}

// A snapshot written at other leaf capacities is another configuration:
// a job resumed by a daemon whose defaults moved from 8/32 must drop it and
// recompute, whichever phase it holds, and end on a clean default run's
// energy.
func TestCapacityChangeCheckpointIsDroppedAndRecomputed(t *testing.T) {
	const P = 2
	m := molecule.Globule("supervised", 300, 7)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	paper := gb.DefaultParams()
	paper.LeafAtoms, paper.LeafQPoints = 8, 32
	old, err := gb.NewSystem(m, surf, paper)
	if err != nil {
		t.Fatal(err)
	}
	s, err := gb.NewSystem(m, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(s, Spec{Processes: P})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []gb.CheckpointPhase{gb.PhaseIntegrals, gb.PhaseRadii, gb.PhaseAggregates, gb.PhaseEpol} {
		store := NewMemStore()
		if _, err := old.Run(gb.RunSpec{Processes: P, Checkpoint: rewindSink{store, phase}}); err != nil {
			t.Fatal(err)
		}
		if ck, err := store.Latest(); err != nil || ck == nil || ck.Phase != phase {
			t.Fatalf("%s: store latest = %+v, %v", phase, ck, err)
		}
		rec := obs.NewRecorder(nil)
		out, err := Run(s, Spec{Processes: P, Store: store, Obs: rec})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		first := out.Attempts[0]
		if !first.DroppedCheckpoint || first.ResumedFrom != gb.PhaseNone {
			t.Errorf("%s: first attempt dropped=%v resumed from %s, want a drop and a recompute",
				phase, first.DroppedCheckpoint, first.ResumedFrom)
		}
		if got := rec.Counters()["supervise.checkpoint_dropped"]; got != 1 {
			t.Errorf("%s: supervise.checkpoint_dropped = %d, want 1", phase, got)
		}
		if out.Result.Epol != clean.Result.Epol {
			t.Errorf("%s: recomputed Epol %v, clean default run %v", phase, out.Result.Epol, clean.Result.Epol)
		}
	}
}

// mustRun runs spec on s and fails the test on error.
func mustRun(t testing.TB, s *gb.System, spec gb.RunSpec) *gb.Result {
	t.Helper()
	res, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
