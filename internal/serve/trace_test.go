package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/fault/fs"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/critpath"
)

// getTrace fetches /v1/traces/{tid} and returns the status and body.
func getTrace(t *testing.T, base, tid string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestTraceIDResolvesToPersistedTrace is the tentpole's serving-side
// contract: every result envelope carries a trace_id; the trace resolves
// over the API to a persisted Chrome trace whose spans cover every rank
// of the job's layout and carry the job and tenant tags; and the
// critical-path analyzer accepts it with attribution summing to the wall
// time.
func TestTraceIDResolvesToPersistedTrace(t *testing.T) {
	dataDir := t.TempDir()
	rec := obs.NewRecorder(nil)
	s, ts := newTestServer(t, Config{DataDir: dataDir, DefaultProcesses: 3, Obs: rec})

	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(120, 5)), Tenant: "acme"})
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil {
		t.Fatal(err)
	}
	wantTID := "t-" + strings.TrimPrefix(accepted.ID, "j-")
	if accepted.TraceID != wantTID {
		t.Fatalf("admission trace_id %q, want %q", accepted.TraceID, wantTID)
	}

	done := awaitTerminal(t, ts.URL, accepted.ID)
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("job view %+v", done)
	}
	if done.TraceID != wantTID {
		t.Errorf("terminal trace_id %q, want %q", done.TraceID, wantTID)
	}

	// The attempt trace is persisted next to the job's checkpoints.
	tracePath := filepath.Join(dataDir, accepted.ID, "trace", "attempt-1.json")
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("persisted trace: %v", err)
	}

	// The API serves the same bytes under the trace ID.
	tcode, tdata := getTrace(t, ts.URL, wantTID)
	if tcode != http.StatusOK {
		t.Fatalf("GET trace status %d: %s", tcode, tdata)
	}
	onDisk, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tdata, onDisk) {
		t.Error("API trace differs from persisted file")
	}

	runs, err := critpath.Parse(tdata)
	if err != nil {
		t.Fatalf("parsing served trace: %v", err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs in trace, want 1", len(runs))
	}
	run := runs[0]
	if run.Trace.TraceID != wantTID || run.Trace.Job != accepted.ID ||
		run.Trace.Tenant != "acme" || run.Trace.Attempt != 1 {
		t.Errorf("trace identity %+v, want {%s %s acme 1}", run.Trace, wantTID, accepted.ID)
	}
	seen := map[int]bool{}
	for _, sp := range run.Spans {
		seen[sp.Rank] = true
	}
	for rank := 0; rank < 3; rank++ {
		if !seen[rank] {
			t.Errorf("no spans from rank %d in persisted trace", rank)
		}
	}
	rep := critpath.Analyze(run, 5)
	if rep.Ranks != 3 || rep.WallUs <= 0 || len(rep.Path) == 0 {
		t.Fatalf("analyzer on served trace: ranks=%d wall=%d path=%d",
			rep.Ranks, rep.WallUs, len(rep.Path))
	}
	for _, lane := range rep.PerRank {
		if got := lane.ComputeUs + lane.CommUs + lane.IdleUs; got != rep.WallUs {
			t.Errorf("rank %d attribution %d != wall %d", lane.Rank, got, rep.WallUs)
		}
	}

	// The server recorder picked up the critical-path gauges and the
	// per-tenant SLO histograms with the trace-ID exemplar (recorded
	// just after the view turns terminal — poll briefly).
	deadline := time.Now().Add(10 * time.Second)
	var metrics string
	for {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, rec); err != nil {
			t.Fatal(err)
		}
		metrics = buf.String()
		if strings.Contains(metrics, "slo.total_us.tenant.acme") ||
			strings.Contains(metrics, "gbpolar_slo_total_us_tenant_acme_bucket") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SLO histogram never appeared in metrics:\n%s", metrics)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"gbpolar_slo_queue_wait_us_tenant_acme_bucket",
		"gbpolar_slo_run_us_tenant_acme_bucket",
		"gbpolar_slo_total_us_tenant_acme_bucket",
		`# {trace_id="` + wantTID + `"}`,
		"gbpolar_critpath_comm_frac",
		"gbpolar_critpath_slack_us_rank0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_ = s
}

// TestDrainPersistsWellFormedTrace is satellite 3's library half: a job
// interrupted mid-run by drain still leaves a complete, parseable trace
// on disk — the gb drivers force-close open spans on the cancel path, so
// the sink always receives an export-ready recorder.
func TestDrainPersistsWellFormedTrace(t *testing.T) {
	dataDir := t.TempDir()
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
	defer ts1.Close()

	code, data := postJob(t, ts1.URL, JobRequest{Molecule: molSpec(testMol(150, 23)), Tenant: "drainer"})
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
	time.Sleep(100 * time.Millisecond) // land inside the slowed phase pipeline
	s1.Drain()

	if view, ok := s1.lookup(accepted.ID); !ok || view.State != StateInterrupted {
		t.Fatalf("post-drain view %+v (ok=%v), want interrupted", view, ok)
	}

	// The interrupted attempt's trace is on disk and well-formed: it
	// parses, the spans are closed (end >= start), and the trace identity
	// matches the job.
	tracePath := filepath.Join(dataDir, accepted.ID, "trace", "attempt-1.json")
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("interrupted job's trace: %v", err)
	}
	runs, err := critpath.Parse(raw)
	if err != nil {
		t.Fatalf("parsing interrupted trace: %v", err)
	}
	if len(runs) != 1 || len(runs[0].Spans) == 0 {
		t.Fatalf("interrupted trace: %d runs, want 1 with spans", len(runs))
	}
	run := runs[0]
	if run.Trace.Job != accepted.ID || run.Trace.Tenant != "drainer" {
		t.Errorf("interrupted trace identity %+v", run.Trace)
	}
	for _, sp := range run.Spans {
		if sp.EndUs < sp.StartUs {
			t.Fatalf("unclosed span %q: [%d, %d]", sp.Name, sp.StartUs, sp.EndUs)
		}
	}

	// The API still serves the trace while the daemon drains.
	tcode, tdata := getTrace(t, ts1.URL, accepted.TraceID)
	if tcode != http.StatusOK {
		t.Fatalf("GET trace during drain: status %d: %s", tcode, tdata)
	}
}

// TestTraceEndpointRejects pins the endpoint's typed-error paths.
func TestTraceEndpointRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultProcesses: 2})
	for _, tid := range []string{"", "t-ffffffffffffffff", "j-123", "t-x/../../etc"} {
		code, data := getTrace(t, ts.URL, tid)
		if code != http.StatusNotFound {
			t.Errorf("GET trace %q: status %d, want 404 (%s)", tid, code, data)
		}
	}
}

// TestTenantSanitization keeps hostile tenant names out of the metric
// namespace.
func TestTenantSanitization(t *testing.T) {
	cases := map[string]string{
		"":           "default",
		"acme":       "acme",
		"a b/c{d}":   "a_b_c_d_",
		"Tenant-9_x": "Tenant-9_x",
	}
	for in, want := range cases {
		if got := sanitizeTenant(in); got != want {
			t.Errorf("sanitizeTenant(%q) = %q, want %q", in, got, want)
		}
	}
}

// A job resumed by a restarted daemon numbers its attempts on from the
// traces the first incarnation persisted. The first incarnation's failed
// attempt keeps its trace, and the trace endpoint serves the attempt that
// produced the result, not the drained one.
func TestRestartContinuesAttemptTraces(t *testing.T) {
	ffs := fs.NewFaultFS(nil)
	crash, err := fault.Parse("crash:0@0,crash:1@0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{DataDir: "data", FS: ffs, CheckpointDelay: 80 * time.Millisecond,
		PlanFor: func(_ string, attempt int) *fault.Plan {
			if attempt == 0 {
				return crash
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j, _, err := s1.admit(&JobRequest{Molecule: molSpec(testMol(150, 27)), Processes: 2})
	if err != nil {
		t.Fatal(err)
	}
	tracePath := func(n int) string {
		return filepath.Join("data", j.id, "trace", fmt.Sprintf("attempt-%d.json", n))
	}
	// The failed attempt's trace lands before the retry starts its slowed
	// checkpoints: drain inside the retry.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := ffs.ReadFile(tracePath(1)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the failed attempt's trace never landed")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Drain()
	if view, ok := s1.lookup(j.id); !ok || view.State != StateInterrupted {
		t.Fatalf("post-drain view %+v (ok=%v), want interrupted", view, ok)
	}
	failed, err := ffs.ReadFile(tracePath(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.ReadFile(tracePath(2)); err != nil {
		t.Fatalf("the drained attempt's trace: %v", err)
	}

	s2, err := New(Config{DataDir: "data", FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Drain()
	}()
	done := awaitTerminal(t, ts2.URL, j.id)
	if done.State != StateDone || done.Result == nil || done.Result.Attempts != 1 {
		t.Fatalf("resumed job view %+v, want done in one attempt", done)
	}
	if kept, err := ffs.ReadFile(tracePath(1)); err != nil || !bytes.Equal(kept, failed) {
		t.Errorf("the failed attempt's trace was overwritten or lost (%v)", err)
	}
	newest, err := ffs.ReadFile(tracePath(3))
	if err != nil {
		t.Fatalf("the resumed attempt's trace: %v", err)
	}
	code, served := getTrace(t, ts2.URL, done.TraceID)
	if code != http.StatusOK || !bytes.Equal(served, newest) {
		t.Fatalf("GET trace: status %d, serves attempt-3.json: %v", code, bytes.Equal(served, newest))
	}
	runs, err := critpath.ParseChromeTrace(served)
	if err != nil || len(runs) != 1 {
		t.Fatalf("served trace: %d runs, %v", len(runs), err)
	}
	if runs[0].Trace.Attempt != 3 || !hasSpan(runs[0], "approx-epol") {
		t.Errorf("served trace is attempt %d (approx-epol span: %v), want attempt 3 with the energy phase",
			runs[0].Trace.Attempt, hasSpan(runs[0], "approx-epol"))
	}
}
