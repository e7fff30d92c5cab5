package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/fault/fs"
	"gbpolar/internal/supervise"
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
