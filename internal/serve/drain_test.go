package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDrainMidJobResumesBitwise is the drain contract, in process:
// a job interrupted mid-run by Drain is re-queued by the next New over
// the same data dir, resumes from its mid-phase checkpoint, and its
// result is bitwise identical — same Epol bits, same Born CRC — to an
// uninterrupted run of the same request.
func TestDrainMidJobResumesBitwise(t *testing.T) {
	dataDir := t.TempDir()
	mol := testMol(150, 21)

	// Phase 1: a daemon whose checkpoint saves are slowed, so the drain
	// signal reliably lands while the job is mid-run.
	s1, err := New(Config{
		DataDir:          dataDir,
		DefaultProcesses: 3,
		CheckpointDelay:  80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())

	code, data := postJob(t, ts1.URL, JobRequest{Molecule: molSpec(mol)})
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil {
		t.Fatal(err)
	}

	// Wait for the job to be running, then drain mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, view := getJob(t, ts1.URL, accepted.ID); view.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // land inside the slowed phase pipeline
	s1.Drain()

	view, ok := s1.lookup(accepted.ID)
	if !ok || view.State != StateInterrupted {
		t.Fatalf("post-drain view %+v (ok=%v), want interrupted", view, ok)
	}
	ts1.Close()

	// Phase 2: a fresh daemon over the same data dir resumes the job.
	s2, err := New(Config{DataDir: dataDir, DefaultProcesses: 3})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()

	resumed := awaitTerminal(t, ts2.URL, accepted.ID)
	if resumed.State != StateDone || resumed.Result == nil {
		t.Fatalf("resumed job view %+v", resumed)
	}
	if !resumed.Result.Resumed {
		t.Error("resumed job not marked Resumed")
	}

	// The reference: the same request, never interrupted.
	ref := refRun(t, mol, 3)
	if resumed.Result.EpolBits != epolBits(ref.Result.Epol) {
		t.Errorf("resumed Epol bits %s != uninterrupted %s",
			resumed.Result.EpolBits, epolBits(ref.Result.Epol))
	}
	if want := bornCRCHex(ref.Result.Born); resumed.Result.BornCRC32 != want {
		t.Errorf("resumed Born CRC %s != uninterrupted %s", resumed.Result.BornCRC32, want)
	}
	if resumed.Result.Degraded {
		t.Error("clean resumed run marked Degraded")
	}
}

// TestRestartServesFinishedJobViews pins the other half of persistence:
// a restarted daemon still answers GET for jobs finished before the
// restart.
func TestRestartServesFinishedJobViews(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := New(Config{DataDir: dataDir, DefaultProcesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	code, data := postJob(t, ts1.URL, JobRequest{Molecule: molSpec(testMol(60, 9))})
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil {
		t.Fatal(err)
	}
	first := awaitTerminal(t, ts1.URL, accepted.ID)
	if first.State != StateDone {
		t.Fatalf("job view %+v", first)
	}
	ts1.Close()
	s1.Drain()

	s2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	codeAfter, after := getJob(t, ts2.URL, accepted.ID)
	if codeAfter != http.StatusOK || after.State != StateDone || after.Result == nil {
		t.Fatalf("restarted GET: %d %+v", codeAfter, after)
	}
	if after.Result.EpolBits != first.Result.EpolBits {
		t.Errorf("restart changed the stored result: %s vs %s",
			after.Result.EpolBits, first.Result.EpolBits)
	}
}

// Admission writes job.json compactly, on one line; older daemons wrote
// it indented. An indented record left in a data dir is re-queued on
// restart and finishes to the bits of a direct run.
func TestIndentedJobRecordResumes(t *testing.T) {
	dataDir := t.TempDir()
	mol := testMol(60, 9)
	rec, err := json.MarshalIndent(jobRecord{ID: "j-indented", Req: JobRequest{Molecule: molSpec(mol), Processes: 2}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dataDir, "j-indented"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "j-indented", "job.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{DataDir: dataDir})
	if s.ResumedJobs() != 1 {
		t.Fatalf("ResumedJobs = %d, want the indented job re-queued", s.ResumedJobs())
	}
	view := awaitTerminal(t, ts.URL, "j-indented")
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("resumed job view %+v", view)
	}
	if want := epolBits(refRun(t, mol, 2).Result.Epol); view.Result.EpolBits != want {
		t.Errorf("resumed Epol bits %s, direct run %s", view.Result.EpolBits, want)
	}

	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(mol), Processes: 2})
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dataDir, accepted.ID, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(written, '\n') {
		t.Errorf("job.json is not compact:\n%s", written)
	}
	if done := awaitTerminal(t, ts.URL, accepted.ID); done.Result == nil || done.Result.EpolBits != view.Result.EpolBits {
		t.Errorf("fresh job view %+v, want Epol bits %s", done, view.Result.EpolBits)
	}
}
