package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/fault/fs"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs/critpath"
	"gbpolar/internal/supervise"
	"gbpolar/internal/surface"
	"gbpolar/internal/tune"
)

// TestTargetErrorReturnsAccuracyEnvelope pins the PR 8 serving contract:
// a job carrying target_error_kcal runs at a tuner-selected point and the
// result reports that point in its accuracy envelope; jobs without a
// target keep the envelope absent.
func TestTargetErrorReturnsAccuracyEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultProcesses: 2})
	mol := testMol(150, 11)

	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(mol), TargetErrorKcal: 1.0})
	if code != 202 {
		t.Fatalf("submit: status %d\n%s", code, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit body: %v\n%s", err, data)
	}
	view := awaitTerminal(t, ts.URL, sub.ID)
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("tuned job ended %s (error %+v)", view.State, view.Error)
	}
	acc := view.Result.Accuracy
	if acc == nil {
		t.Fatal("tuned result carries no accuracy envelope")
	}
	if acc.TargetErrorKcal != 1.0 {
		t.Errorf("envelope target %v, want 1.0", acc.TargetErrorKcal)
	}
	if !(acc.EpsBorn > 0) || !(acc.EpsEpol > 0) || !(acc.BinWidth > 0) {
		t.Errorf("envelope knobs not resolved: %+v", acc)
	}
	if acc.QuadOrder < 1 || acc.QuadOrder > 8 || acc.Order < 0 || acc.Order > 2 {
		t.Errorf("envelope orders out of range: %+v", acc)
	}
	if !(acc.PredictedErrorKcal > 0) {
		t.Errorf("envelope predicted error %v, want positive", acc.PredictedErrorKcal)
	}
	if view.Result.Epol >= 0 {
		t.Errorf("tuned Epol %v, must be negative", view.Result.Epol)
	}

	// Determinism across submissions: the tuner search is deterministic,
	// so a second identical job lands on the same point and the same bits.
	code, data = postJob(t, ts.URL, JobRequest{Molecule: molSpec(mol), TargetErrorKcal: 1.0})
	if code != 202 {
		t.Fatalf("resubmit: status %d\n%s", code, data)
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit body: %v\n%s", err, data)
	}
	again := awaitTerminal(t, ts.URL, sub.ID)
	if again.State != StateDone || again.Result == nil || again.Result.Accuracy == nil {
		t.Fatalf("second tuned job ended %s", again.State)
	}
	if *again.Result.Accuracy != *acc {
		t.Errorf("tuned point not reproducible: %+v vs %+v", *again.Result.Accuracy, *acc)
	}
	if again.Result.EpolBits != view.Result.EpolBits {
		t.Errorf("tuned Epol bits differ across identical jobs: %s vs %s",
			again.Result.EpolBits, view.Result.EpolBits)
	}

	// No target: no envelope.
	code, data = postJob(t, ts.URL, JobRequest{Molecule: molSpec(mol)})
	if code != 202 {
		t.Fatalf("untuned submit: status %d\n%s", code, data)
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit body: %v\n%s", err, data)
	}
	plain := awaitTerminal(t, ts.URL, sub.ID)
	if plain.State != StateDone || plain.Result == nil {
		t.Fatalf("untuned job ended %s", plain.State)
	}
	if plain.Result.Accuracy != nil {
		t.Errorf("untuned result carries an accuracy envelope: %+v", plain.Result.Accuracy)
	}
}

// A tuned job whose layout the molecule cannot take still finishes: the
// tuner searches on one rank, and the supervisor ends the job on its
// serial fallback rung, as it does for an untuned job at that layout.
func TestTunedJobAtInvalidLayoutFallsBack(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(12, 5)),
		Processes: 20, TargetErrorKcal: 1.0})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d\n%s", code, data)
	}
	var sub JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit body: %v\n%s", err, data)
	}
	view := awaitTerminal(t, ts.URL, sub.ID)
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("tuned job at an invalid layout ended %s (error %+v)", view.State, view.Error)
	}
	if view.Result.Rung != supervise.RungFallback.String() {
		t.Errorf("rung %q, want %q", view.Result.Rung, supervise.RungFallback.String())
	}
	if view.Result.Accuracy == nil {
		t.Error("tuned result carries no accuracy envelope")
	}
}

// Drain during the tuner's search stops the search instead of waiting
// for it: the job ends interrupted with job.json kept and no tune.*
// counter emitted, and a new server on the same disk finishes it with
// the bits of an uninterrupted tuned run.
func TestDrainDuringTuningInterruptsAndResumes(t *testing.T) {
	ffs := fs.NewFaultFS(nil)
	mol := testMol(1500, 31)
	req := JobRequest{Molecule: molSpec(mol), Processes: 2, TargetErrorKcal: 1.0}
	rec := faultRecorder()
	s1, err := New(Config{DataDir: "data", FS: ffs, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j, _, err := s1.admit(&req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if view, _ := s1.lookup(j.id); view.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s1.Drain()
	if view, ok := s1.lookup(j.id); !ok || view.State != StateInterrupted {
		t.Fatalf("post-drain view %+v (ok=%v), want interrupted", view, ok)
	}
	for name := range rec.Counters() {
		if strings.HasPrefix(name, "tune.") {
			t.Errorf("canceled search emitted %s", name)
		}
	}
	if _, err := ffs.ReadFile("data/" + j.id + "/job.json"); err != nil {
		t.Fatalf("job.json after drain: %v", err)
	}

	s2, err := New(Config{DataDir: "data", FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ResumedJobs() != 1 {
		t.Fatalf("ResumedJobs = %d, want 1", s2.ResumedJobs())
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()
	resumed := awaitTerminal(t, ts2.URL, j.id)
	if resumed.State != StateDone || resumed.Result == nil || resumed.Result.Accuracy == nil {
		t.Fatalf("resumed tuned job view %+v", resumed)
	}

	_, ts := newTestServer(t, Config{})
	code, data := postJob(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d\n%s", code, data)
	}
	var sub JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit body: %v\n%s", err, data)
	}
	ref := awaitTerminal(t, ts.URL, sub.ID)
	if ref.State != StateDone || ref.Result == nil || ref.Result.Accuracy == nil {
		t.Fatalf("uninterrupted tuned job view %+v", ref)
	}
	if resumed.Result.EpolBits != ref.Result.EpolBits || resumed.Result.BornCRC32 != ref.Result.BornCRC32 {
		t.Errorf("resumed tuned job Epol %s / Born %s, uninterrupted %s / %s",
			resumed.Result.EpolBits, resumed.Result.BornCRC32, ref.Result.EpolBits, ref.Result.BornCRC32)
	}
	if *resumed.Result.Accuracy != *ref.Result.Accuracy {
		t.Errorf("resumed tuned point %+v, uninterrupted %+v", *resumed.Result.Accuracy, *ref.Result.Accuracy)
	}
}

// directRunAt runs mol at a result's accuracy envelope on P ranks: the
// bits a tuned job is served.
func directRunAt(t *testing.T, mol *molecule.Molecule, acc *AccuracyDoc, P int) *gb.Result {
	t.Helper()
	cfg := surface.DefaultConfig()
	cfg.RuleDegree = acc.QuadOrder
	surf, err := surface.Build(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := gb.DefaultParams()
	params.Accuracy = gb.Accuracy{EpsBorn: acc.EpsBorn, EpsEpol: acc.EpsEpol, BinWidth: acc.BinWidth,
		QuadOrder: acc.QuadOrder, Order: acc.Order}
	sys, err := gb.NewSystem(mol, surf, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(gb.RunSpec{Processes: P})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// submitTuned posts a tuned two-rank job for mol and returns its id.
func submitTuned(t *testing.T, base string, mol *molecule.Molecule) string {
	t.Helper()
	code, data := postJob(t, base, JobRequest{Molecule: molSpec(mol), Processes: 2, TargetErrorKcal: 1.0})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d\n%s", code, data)
	}
	var sub JobView
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit body: %v\n%s", err, data)
	}
	return sub.ID
}

// attemptTrace parses a job's persisted trace of one attempt, which must
// hold exactly one run.
func attemptTrace(t *testing.T, ffs *fs.FaultFS, id string, attempt int) critpath.Run {
	t.Helper()
	data, err := ffs.ReadFile(filepath.Join("data", id, "trace", "attempt-"+strconv.Itoa(attempt)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := critpath.ParseChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("attempt %d trace holds %d runs, want 1", attempt, len(runs))
	}
	return runs[0]
}

// hasSpan reports whether a run recorded a span of the given name.
func hasSpan(run critpath.Run, name string) bool {
	for _, sp := range run.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// A tuned job is computed once: the tuner's run of the admitted point
// reaches the supervisor as a finished checkpoint. The served bits are a
// direct fault-tolerance-protocol run's at the envelope's point and
// layout; the job makes one attempt on the initial rung, writes one
// checkpoint and runs no phase, its trace parses as one spanless run,
// and the ops/atom EWMA learns the tuner's measured ops for the point.
func TestTunedJobRunsTheTunersRun(t *testing.T) {
	ffs := fs.NewFaultFS(nil)
	s, ts := newTestServer(t, Config{DataDir: "data", FS: ffs})
	mol := testMol(500, 41)
	id := submitTuned(t, ts.URL, mol)
	view := awaitTerminal(t, ts.URL, id)
	s.Drain() // the worker has persisted everything once it exits
	res := view.Result
	if view.State != StateDone || res == nil || res.Accuracy == nil {
		t.Fatalf("tuned job ended %s (error %+v)", view.State, view.Error)
	}
	direct := directRunAt(t, mol, res.Accuracy, 2)
	if res.EpolBits != epolBits(direct.Epol) || res.BornCRC32 != bornCRCHex(direct.Born) {
		t.Errorf("served Epol %s / Born %s, direct run %s / %s",
			res.EpolBits, res.BornCRC32, epolBits(direct.Epol), bornCRCHex(direct.Born))
	}
	if res.Attempts != 1 || res.Rung != supervise.RungInitial.String() || res.Degraded {
		t.Errorf("attempts %d on rung %s (degraded %v), want 1 on %s",
			res.Attempts, res.Rung, res.Degraded, supervise.RungInitial)
	}
	ents, err := ffs.ReadDir(filepath.Join("data", id, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "phase-4-epol.gbcp" {
		t.Errorf("checkpoint dir holds %v, want only the epol checkpoint", names)
	}
	// job.json, the handed-off checkpoint, the attempt's trace, result.json.
	if w := ffs.Stats().Writes; w != 4 {
		t.Errorf("%d file writes, want 4", w)
	}
	if run := attemptTrace(t, ffs, id, 1); len(run.Spans) != 0 || run.Trace.Attempt != 1 {
		t.Errorf("attempt trace: %d spans, attempt %d; want none, 1", len(run.Spans), run.Trace.Attempt)
	}

	sel, err := tune.Select(mol, 1.0, tune.Options{Processes: 2, ThreadsPerProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Point.Ops != direct.TotalOps() {
		t.Errorf("tuner measured %d ops, direct run %d", sel.Point.Ops, direct.TotalOps())
	}
	want := 0.7*seedOpsPerAtom + 0.3*float64(sel.Point.Ops)/float64(mol.NumAtoms())
	if got := math.Float64frombits(s.opsPerAtom.Load()); got != want {
		t.Errorf("ops/atom EWMA %v after the tuned job, want %v", got, want)
	}
}

// The handoff is a shortcut, not a dependency: when its checkpoint
// cannot be saved, the failure is counted and the supervisor computes the
// point itself, to the same bits.
func TestTunedHandoffSaveFailureRecomputes(t *testing.T) {
	// Write op 0 is the admission's job.json; ops 1 and 2 are the handoff
	// save and DirStore's one retry.
	ffs := fs.NewFaultFS(diskPlan(t, "enospc@1+2"))
	rec := faultRecorder()
	s, ts := newTestServer(t, Config{DataDir: "data", FS: ffs, Obs: rec})
	mol := testMol(500, 41)
	id := submitTuned(t, ts.URL, mol)
	view := awaitTerminal(t, ts.URL, id)
	s.Drain()
	res := view.Result
	if view.State != StateDone || res == nil || res.Accuracy == nil {
		t.Fatalf("tuned job ended %s (error %+v)", view.State, view.Error)
	}
	direct := directRunAt(t, mol, res.Accuracy, 2)
	if res.EpolBits != epolBits(direct.Epol) || res.BornCRC32 != bornCRCHex(direct.Born) {
		t.Errorf("served Epol %s / Born %s, direct run %s / %s",
			res.EpolBits, res.BornCRC32, epolBits(direct.Epol), bornCRCHex(direct.Born))
	}
	if n := rec.Counters()["serve.tune_handoff_errors"]; n != 1 {
		t.Errorf("serve.tune_handoff_errors = %d, want 1", n)
	}
	if st := ffs.Stats(); st.Enospc != 2 {
		t.Errorf("%d ENOSPC injections, want the handoff save and its retry", st.Enospc)
	}
	if res.Attempts != 1 || !hasSpan(attemptTrace(t, ffs, id, 1), "approx-epol") {
		t.Errorf("%d attempts; want 1 that computed the energy phase", res.Attempts)
	}
}

// A pre-shed tuned job runs the shed point, which the tuner never ran:
// it gets no handoff and computes, as an unshed tuned job would not.
func TestPreShedTunedJobRecomputes(t *testing.T) {
	ffs := fs.NewFaultFS(nil)
	rec := faultRecorder()
	// Staged before Start: the first job dequeued sees the second queued
	// (depth 1 ≥ ShedQueueDepth) and is shed; the second is not.
	s, err := New(Config{DataDir: "data", FS: ffs, Obs: rec, QueueDepth: 4, ShedQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mol := testMol(500, 41)
	ids := []string{submitTuned(t, ts.URL, mol), submitTuned(t, ts.URL, mol)}
	s.Start()
	defer s.Drain()
	shed, plain := awaitTerminal(t, ts.URL, ids[0]), awaitTerminal(t, ts.URL, ids[1])
	if shed.State != StateDone || !shed.Result.Shed || plain.State != StateDone || plain.Result.Shed {
		t.Fatalf("want the first job shed and the second not: %+v / %+v", shed.Result, plain.Result)
	}
	if !hasSpan(attemptTrace(t, ffs, ids[0], 1), "approx-epol") {
		t.Error("the pre-shed job did not compute its energy phase")
	}
	if len(attemptTrace(t, ffs, ids[1], 1).Spans) != 0 {
		t.Error("the unshed tuned job recomputed the tuner's point")
	}

	sel, err := tune.Select(mol, 1.0, tune.Options{Processes: 2, ThreadsPerProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := supervise.Run(sel.System, supervise.Spec{Processes: 2, ThreadsPerProcess: 1,
		Shed: true, AccuracyLadder: relaxLadder(sel)})
	if err != nil {
		t.Fatal(err)
	}
	if got := shed.Result; got.EpolBits != epolBits(out.Result.Epol) || got.BornCRC32 != bornCRCHex(out.Result.Born) {
		t.Errorf("shed job Epol %s / Born %s, supervised shed run %s / %s",
			got.EpolBits, got.BornCRC32, epolBits(out.Result.Epol), bornCRCHex(out.Result.Born))
	}
	if n := rec.Counters()["serve.tune_handoff_errors"]; n != 0 {
		t.Errorf("serve.tune_handoff_errors = %d, want 0", n)
	}
}

// A shed tuned job starts on the first step of its tuner ladder, not on a
// scaled copy of its pick: the served point is that step's, eps_factor
// is the step's ε over the pick's, the bits are a direct supervised Shed
// run's over the same ladder, and the priced bound contains the distance
// to the unshed job's energy.
func TestShedTunedJobRunsLadderFirstStep(t *testing.T) {
	// Staged before Start: the first job dequeued sees the second queued
	// (depth 1 ≥ ShedQueueDepth) and is shed; the second is not.
	s, err := New(Config{DataDir: t.TempDir(), QueueDepth: 4, ShedQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mol := testMol(300, 17)
	ids := []string{submitTuned(t, ts.URL, mol), submitTuned(t, ts.URL, mol)}
	s.Start()
	defer s.Drain()
	shed, plain := awaitTerminal(t, ts.URL, ids[0]), awaitTerminal(t, ts.URL, ids[1])
	if shed.State != StateDone || !shed.Result.Shed || plain.State != StateDone || plain.Result.Shed {
		t.Fatalf("want the first job shed and the second not: %+v / %+v", shed.Result, plain.Result)
	}

	sel, err := tune.Select(mol, 1.0, tune.Options{Processes: 2, ThreadsPerProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	ladder := relaxLadder(sel)
	if len(ladder) == 0 {
		t.Fatal("the tuner's pick has no cheaper point: the job would shed on the default ladder")
	}
	got, first := shed.Result, ladder[0].Accuracy
	if a := got.Accuracy; a == nil || a.EpsBorn != first.EpsBorn || a.EpsEpol != first.EpsEpol ||
		a.BinWidth != first.BinWidth || a.QuadOrder != first.QuadOrder || a.Order != first.Order {
		t.Errorf("shed job ran at %+v, want the ladder's first step %+v", got.Accuracy, first)
	}
	if want := first.EpsEpol / sel.Point.Acc.EpsEpol; got.EpsFactor != want {
		t.Errorf("eps_factor %v, want the step's ε over the pick's, %v", got.EpsFactor, want)
	}
	out, err := supervise.Run(sel.System, supervise.Spec{Processes: 2, ThreadsPerProcess: 1,
		Shed: true, AccuracyLadder: ladder})
	if err != nil {
		t.Fatal(err)
	}
	if got.EpolBits != epolBits(out.Result.Epol) {
		t.Errorf("shed job Epol %s, supervised Shed run %s", got.EpolBits, epolBits(out.Result.Epol))
	}
	if !got.Degraded {
		t.Error("shed job not marked Degraded")
	}
	if d := math.Abs(got.Epol - plain.Result.Epol); !(d <= got.ErrorBound) {
		t.Errorf("|E_shed − E_unshed| = %g outside the priced bound %g", d, got.ErrorBound)
	}
}
