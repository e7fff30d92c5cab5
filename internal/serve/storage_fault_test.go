package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/fault/fs"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
)

func diskPlan(t *testing.T, s string) *fs.Plan {
	t.Helper()
	p, err := fs.Parse(s)
	if err != nil {
		t.Fatalf("fs.Parse(%q): %v", s, err)
	}
	return p
}

func faultRecorder() *obs.Recorder {
	tm := perf.StartTimer()
	return obs.NewRecorder(tm.Elapsed)
}

// The 202 ack rides on a durable job.json: when the admission write's
// fsync fails, the request must be REJECTED — never acknowledged on the
// strength of the page cache — and no job registered.
func TestAdmissionFailsWhenJobPersistCannotSync(t *testing.T) {
	ffs := fs.NewFaultFS(diskPlan(t, "syncerr@0+1"))
	_, ts := newTestServer(t, Config{DataDir: "data", FS: ffs, DefaultProcesses: 2})

	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(40, 3))})
	if code != http.StatusInternalServerError {
		t.Fatalf("POST on unsyncable disk: status %d, body %s", code, data)
	}
	if doc := decodeError(t, data); doc.Code != CodeInternal {
		t.Fatalf("error code %q", doc.Code)
	}
	// Nothing half-admitted: no job.json landed, so a restart re-queues
	// nothing.
	ents, err := ffs.ReadDir("data")
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, err := ffs.ReadFile("data/" + e.Name() + "/job.json"); err == nil {
			t.Fatalf("job.json exists for rejected admission in %s", e.Name())
		}
	}
	// The disk heals (the plan window passed): the next POST is a 202.
	code, data = postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(40, 3))})
	if code != http.StatusAccepted {
		t.Fatalf("POST after heal: status %d, body %s", code, data)
	}
}

// result.json is all-or-nothing: a torn terminal write (only possible
// past the atomic discipline when the fsync lied) must put the job back
// in the restart re-queue set, not serve a truncated result.
func TestTornResultRequeuedOnRestart(t *testing.T) {
	ffs := fs.NewFaultFS(nil)
	recJSON, err := json.Marshal(jobRecord{ID: "j-torn", Req: JobRequest{Molecule: molSpec(testMol(30, 5))}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ffs.MkdirAll("data/j-torn"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFileAtomic(ffs, "data/j-torn/job.json", recJSON); err != nil {
		t.Fatal(err)
	}
	// The post-crash survivor of a torn result.json: a JSON prefix.
	if err := fs.WriteFileAtomic(ffs, "data/j-torn/result.json", []byte(`{"id":"j-to`)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: "data", FS: ffs, DefaultProcesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.ResumedJobs() != 1 {
		t.Fatalf("ResumedJobs = %d, want 1 (torn result must re-queue)", s.ResumedJobs())
	}
	view, ok := s.lookup("j-torn")
	if !ok || view.State != StateQueued {
		t.Fatalf("lookup after torn result: %+v ok=%v, want queued", view, ok)
	}
	// Contrast: an intact result.json is terminal, not re-queued.
	done := JobView{ID: "j-torn", State: StateDone, Result: &ResultDoc{Epol: -1}}
	doneJSON, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFileAtomic(ffs, "data/j-torn/result.json", doneJSON); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{DataDir: "data", FS: ffs, DefaultProcesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ResumedJobs() != 0 {
		t.Fatalf("ResumedJobs = %d with intact result, want 0", s2.ResumedJobs())
	}
}

// A job.json persisted with an impossible thread count (admitted by an
// older daemon) must not be re-queued on restart, where it would take the
// process down again: New finishes it as a typed input error.
func TestPersistedHugeThreadsJobFinishedInvalid(t *testing.T) {
	ffs := fs.NewFaultFS(nil)
	req := JobRequest{Molecule: molSpec(testMol(30, 5)), Processes: 2, Threads: 1 << 40}
	recJSON, err := json.Marshal(jobRecord{ID: "j-huge", Req: req})
	if err != nil {
		t.Fatal(err)
	}
	if err := ffs.MkdirAll("data/j-huge"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFileAtomic(ffs, "data/j-huge/job.json", recJSON); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: "data", FS: ffs, DefaultProcesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.ResumedJobs() != 0 {
		t.Fatalf("ResumedJobs = %d, want 0 (the job cannot run)", s.ResumedJobs())
	}
	view, ok := s.lookup("j-huge")
	if !ok || view.State != StateFailed || view.Error == nil ||
		view.Error.Code != CodeInvalidInput || !strings.Contains(view.Error.Message, "threads") {
		t.Fatalf("lookup after restart: %+v (error %+v) ok=%v, want failed %s naming threads", view, view.Error, ok, CodeInvalidInput)
	}
}

// Trace persistence under a failing fsync: the error is surfaced (and
// counted by the caller), never silently swallowed into a truncated
// trace file.
func TestTracePersistSyncError(t *testing.T) {
	ffs := fs.NewFaultFS(diskPlan(t, "syncerr@0+1"))
	rec := faultRecorder()
	s, err := New(Config{DataDir: "data", FS: ffs, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.persistAttemptTrace("j-x", 1, faultRecorder()); err == nil {
		t.Fatal("persistAttemptTrace under fsync error should fail")
	}
	if path, _ := s.latestTraceFile("j-x"); path != "" {
		t.Fatal("failed trace persist left a published attempt file")
	}
	// Attempt 2 lands after the fault window.
	if err := s.persistAttemptTrace("j-x", 2, faultRecorder()); err != nil {
		t.Fatalf("persistAttemptTrace after heal: %v", err)
	}
	if got, _ := s.latestTraceFile("j-x"); !strings.HasSuffix(got, "attempt-2.json") {
		t.Fatalf("latestTraceFile = %q", got)
	}
}

// Trace persistence under a torn write + fsync lie: the publish "works",
// and after the crash the file is a truncated prefix. Traces are
// observability, not correctness — the invariant is only that the torn
// file stays confined to the trace dir and never resurrects as a job.
func TestTracePersistTornWrite(t *testing.T) {
	ffs := fs.NewFaultFS(diskPlan(t, "torn:5@0+1,synclie@0+1"))
	s, err := New(Config{DataDir: "data", FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.persistAttemptTrace("j-x", 1, faultRecorder()); err != nil {
		t.Fatalf("torn trace persist reported failure: %v", err)
	}
	crashed := ffs.Crash(nil)
	data, err := crashed.ReadFile("data/j-x/trace/attempt-1.json")
	if err != nil || len(data) != 5 {
		t.Fatalf("post-crash torn trace: %d bytes, %v (want the 5 surviving)", len(data), err)
	}
	s2, err := New(Config{DataDir: "data", FS: crashed})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ResumedJobs() != 0 {
		t.Fatalf("a torn trace resurrected %d jobs", s2.ResumedJobs())
	}
}

// The memory gate's three outcomes: too large at any layout (413,
// permanent), shrink to a narrower layout that fits (admit, visible in
// the counter), and no headroom at all (429 memory_pressure).
func TestMemoryBudgetAdmission(t *testing.T) {
	atoms := 100
	perProc := perf.EstimateDataBytes(atoms, 60*atoms)

	t.Run("too_large", func(t *testing.T) {
		_, ts := newTestServer(t, Config{DefaultProcesses: 4, MemBudgetBytes: perProc - 1})
		code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(atoms, 7))})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d: %s", code, data)
		}
		if doc := decodeError(t, data); doc.Code != CodeTooLarge {
			t.Fatalf("error code %q", doc.Code)
		}
	})

	t.Run("shrink", func(t *testing.T) {
		rec := faultRecorder()
		// Budget fits two processes, the request wants four: degrade to
		// the widest layout that fits instead of rejecting or OOMing.
		s, err := New(Config{DataDir: t.TempDir(), Obs: rec,
			DefaultProcesses: 4, MemBudgetBytes: 2*perProc + 1})
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := s.admit(&JobRequest{Molecule: molSpec(testMol(atoms, 7)), Processes: 4})
		if err != nil {
			t.Fatalf("admit: %v", err)
		}
		if j.runP != 2 {
			t.Fatalf("runP = %d, want shrink to 2", j.runP)
		}
		if j.memBytes != 2*perProc {
			t.Fatalf("charged %d bytes, want %d", j.memBytes, 2*perProc)
		}
		if rec.Counters()["serve.jobs.memshrunk"] != 1 {
			t.Fatalf("counters = %v", rec.Counters())
		}
		if g := rec.Gauges()["storage.bytes_inflight"]; g != 2*perProc {
			t.Fatalf("storage.bytes_inflight = %d, want %d", g, 2*perProc)
		}
	})

	t.Run("memory_pressure", func(t *testing.T) {
		s, err := New(Config{DataDir: t.TempDir(), DefaultProcesses: 2,
			MemBudgetBytes: 4 * perProc})
		if err != nil {
			t.Fatal(err)
		}
		// Fill the budget as a running job would.
		s.memInflight.Store(4 * perProc)
		_, retryAfter, err := s.admit(&JobRequest{Molecule: molSpec(testMol(atoms, 7))})
		if err == nil || !strings.Contains(err.Error(), "memory") {
			t.Fatalf("admit with zero headroom: err = %v", err)
		}
		if retryAfter < 1 {
			t.Fatalf("retryAfter = %d, want >= 1", retryAfter)
		}
	})

	t.Run("http_memory_pressure", func(t *testing.T) {
		s, ts := newTestServer(t, Config{DefaultProcesses: 2, MemBudgetBytes: 4 * perProc})
		s.memInflight.Store(4 * perProc)
		code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(atoms, 7))})
		if code != http.StatusTooManyRequests {
			t.Fatalf("status %d: %s", code, data)
		}
		doc := decodeError(t, data)
		if doc.Code != CodeMemoryPressure || doc.RetryAfterSec < 1 {
			t.Fatalf("error doc %+v", doc)
		}
	})
}

// Retry-After stays inside [1, MaxRetryAfterSec] whatever state the
// cost model is in — including the poisoned-EWMA and negative-queue
// edges a cold or buggy daemon could reach.
func TestRetryAfterClamp(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), MaxRetryAfterSec: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfter(); got != 1 {
		t.Fatalf("empty queue: retryAfter = %d, want 1", got)
	}
	s.queuedOps.Store(1 << 60)
	if got := s.retryAfter(); got != 7 {
		t.Fatalf("huge queue: retryAfter = %d, want the 7s clamp", got)
	}
	s.queuedOps.Store(-5)
	if got := s.retryAfter(); got != 1 {
		t.Fatalf("negative queue: retryAfter = %d, want 1", got)
	}
	// A poisoned EWMA must not break the ops estimate either: the
	// fallback density keeps estimates positive.
	s.opsPerAtom.Store(math.Float64bits(math.NaN()))
	if est := s.estimateOps(100); est <= 0 {
		t.Fatalf("estimateOps under NaN EWMA = %d, want positive", est)
	}
	s.opsPerAtom.Store(math.Float64bits(-10))
	if est := s.estimateOps(100); est <= 0 {
		t.Fatalf("estimateOps under negative EWMA = %d, want positive", est)
	}
}

// Graceful drain racing an ENOSPC disk: every checkpoint save fails,
// but drain must still stop the job at a phase boundary as interrupted
// — job.json present, result.json absent, nothing partial acked — and
// a restart on a healed disk completes it bitwise-identical to an
// undisturbed run.
func TestDrainRacingENOSPC(t *testing.T) {
	// Write op 0 is the admission's job.json; every write after it hits
	// ENOSPC, so no checkpoint or trace can land while the plan holds.
	ffs := fs.NewFaultFS(diskPlan(t, "enospc@1+10000"))
	mol := testMol(150, 23)
	s1, err := New(Config{
		DataDir:          "data",
		FS:               ffs,
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
	time.Sleep(100 * time.Millisecond) // land inside the slowed, failing checkpoint pipeline
	s1.Drain()
	ts1.Close()

	view, ok := s1.lookup(accepted.ID)
	if !ok || view.State != StateInterrupted {
		t.Fatalf("post-drain view %+v (ok=%v), want interrupted — ENOSPC must not turn drain into a failure ack", view, ok)
	}
	if _, err := ffs.ReadFile("data/" + accepted.ID + "/result.json"); !os.IsNotExist(err) {
		t.Fatalf("drain acked a result on a full disk: %v", err)
	}

	// Restart on the healed disk (space freed): the job re-queues and
	// completes clean. Crash(nil) keeps exactly the durable bytes —
	// job.json, synced at admission, survives by construction.
	healed := ffs.Crash(nil)
	s2, err := New(Config{DataDir: "data", FS: healed, DefaultProcesses: 3})
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
	resumed := awaitTerminal(t, ts2.URL, accepted.ID)
	if resumed.State != StateDone || resumed.Result == nil {
		t.Fatalf("resumed job view %+v", resumed)
	}
	ref := refRun(t, mol, 3)
	if resumed.Result.EpolBits != epolBits(ref.Result.Epol) {
		t.Errorf("resumed Epol bits %s != undisturbed %s",
			resumed.Result.EpolBits, epolBits(ref.Result.Epol))
	}
	if resumed.Result.Degraded {
		t.Error("clean re-run marked Degraded")
	}
}
