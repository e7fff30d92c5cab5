package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gbpolar/internal/fault/fs"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/supervise"
	"gbpolar/internal/surface"
)

// molSpec converts a generated molecule into the wire format.
func molSpec(m *molecule.Molecule) MoleculeSpec {
	spec := MoleculeSpec{Name: m.Name, Atoms: make([]AtomSpec, len(m.Atoms))}
	for i, a := range m.Atoms {
		spec.Atoms[i] = AtomSpec{X: a.Pos.X, Y: a.Pos.Y, Z: a.Pos.Z,
			Radius: a.Radius, Charge: a.Charge}
	}
	return spec
}

// A request whose thread count exceeds the molecule's atoms used to be
// acknowledged and then end the process: 2^40 threads sized a per-core
// array of 16 TiB, and two million threads started two million
// goroutines per rank. Admission now answers a typed 400 that names the
// field, and the server goes on to finish a normal job.
func TestHugeThreadsRejectedAtAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, FS: fs.NewFaultFS(nil)})
	spec := molSpec(testMol(199, 11))
	for _, threads := range []int{1 << 40, 2000000, 200} {
		code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Processes: 2, Threads: threads})
		if code != http.StatusBadRequest {
			t.Fatalf("threads=%d: status %d: %s", threads, code, data)
		}
		if doc := decodeError(t, data); doc.Code != CodeInvalidInput || !strings.Contains(doc.Message, "threads") {
			t.Fatalf("threads=%d: error %+v, want %s naming the threads field", threads, doc, CodeInvalidInput)
		}
	}
	code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Processes: 2, Threads: 1})
	if code != http.StatusAccepted {
		t.Fatalf("normal job: status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("accepted view %s: %v", data, err)
	}
	if view := awaitTerminal(t, ts.URL, accepted.ID); view.State != StateDone {
		t.Errorf("normal job ended %s, want %s", view.State, StateDone)
	}
}

func testMol(n int, seed int64) *molecule.Molecule {
	return molecule.Exactly(molecule.Globule("test", n, seed), n, seed)
}

// newTestServer builds, starts, and tears down a server over its
// httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postJob(t *testing.T, base string, req JobRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, base, body)
}

func postRaw(t *testing.T, base string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
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

func getJob(t *testing.T, base, id string) (int, JobView) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("job view JSON: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, view
}

// awaitTerminal polls until the job reaches a terminal state.
func awaitTerminal(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, view := getJob(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch view.State {
		case StateDone, StateFailed, StateInterrupted:
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

func decodeError(t *testing.T, data []byte) ErrorDoc {
	t.Helper()
	var doc struct {
		Error ErrorDoc `json:"error"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("error envelope JSON: %v\n%s", err, data)
	}
	return doc.Error
}

// refRun computes the reference outcome for a molecule at layout P via
// the same supervised path the daemon uses.
func refRun(t *testing.T, m *molecule.Molecule, P int) *supervise.Outcome {
	t.Helper()
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gb.NewSystem(m, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	out, err := supervise.Run(sys, supervise.Spec{Processes: P})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSubmitAndCompleteMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultProcesses: 3})
	mol := testMol(150, 11)

	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(mol)})
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("accepted view %s: %v", data, err)
	}
	view := awaitTerminal(t, ts.URL, accepted.ID)
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("terminal view %+v", view)
	}
	ref := refRun(t, mol, 3)
	if view.Result.EpolBits != epolBits(ref.Result.Epol) {
		t.Errorf("served Epol bits %s, direct run %s", view.Result.EpolBits, epolBits(ref.Result.Epol))
	}
	if want := bornCRCHex(ref.Result.Born); view.Result.BornCRC32 != want {
		t.Errorf("served Born CRC %s, direct run %s", view.Result.BornCRC32, want)
	}
	if view.Result.Degraded || view.Result.ErrorBound != 0 {
		t.Errorf("clean run reported degraded=%v bound=%v", view.Result.Degraded, view.Result.ErrorBound)
	}
}

func TestMalformedAndInvalidRequestsAreTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxAtoms: 50})

	// Not JSON at all.
	code, data := postRaw(t, ts.URL, []byte("{not json"))
	if code != http.StatusBadRequest || decodeError(t, data).Code != CodeMalformed {
		t.Errorf("garbage body: %d %s", code, data)
	}
	// Unknown field.
	code, data = postRaw(t, ts.URL, []byte(`{"molecule":{"atoms":[]},"surprise":1}`))
	if code != http.StatusBadRequest || decodeError(t, data).Code != CodeMalformed {
		t.Errorf("unknown field: %d %s", code, data)
	}
	// Empty roster.
	code, data = postJob(t, ts.URL, JobRequest{})
	if code != http.StatusBadRequest || decodeError(t, data).Code != CodeInvalidInput {
		t.Errorf("empty roster: %d %s", code, data)
	}
	// NaN coordinate survives JSON as a string? No — JSON has no NaN
	// literal, but a client can still send huge-but-finite garbage;
	// what CAN arrive as NaN is division artifacts on our side. Cover
	// the validator path with an inline NaN built server-side.
	spec := molSpec(testMol(10, 3))
	spec.Atoms[4].Radius = -1
	code, data = postJob(t, ts.URL, JobRequest{Molecule: spec})
	if code != http.StatusBadRequest || decodeError(t, data).Code != CodeInvalidInput {
		t.Errorf("negative radius: %d %s", code, data)
	}
	// Oversized roster.
	code, data = postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(60, 4))})
	if code != http.StatusBadRequest {
		t.Errorf("oversized roster: %d %s", code, data)
	}
	if doc := decodeError(t, data); doc.Code != CodeInvalidInput || !strings.Contains(doc.Message, "limit of 50") {
		t.Errorf("oversized roster error %+v", decodeError(t, data))
	}
	// Unknown job.
	if code, _ := getJob(t, ts.URL, "j-doesnotexist"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
}

func TestQuotaRejectsWithRetryAfter(t *testing.T) {
	var clockNanos atomic.Int64
	clockNanos.Store(time.Unix(1000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, clockNanos.Load()) }
	_, ts := newTestServer(t, Config{
		Quota: QuotaConfig{RatePerSec: 0.5, Burst: 2},
		Clock: clock,
	})
	spec := molSpec(testMol(20, 5))

	for i := 0; i < 2; i++ {
		if code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Tenant: "acme"}); code != http.StatusAccepted {
			t.Fatalf("burst request %d rejected: %d %s", i, code, data)
		}
	}
	code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Tenant: "acme"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d: %s", code, data)
	}
	doc := decodeError(t, data)
	if doc.Code != CodeOverQuota || doc.RetryAfterSec < 1 {
		t.Errorf("over-quota error %+v", doc)
	}
	// Another tenant has its own bucket.
	if code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Tenant: "other"}); code != http.StatusAccepted {
		t.Errorf("other tenant rejected: %d %s", code, data)
	}
	// Tokens refill with the clock.
	clockNanos.Add(int64(2 * time.Second))
	if code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Tenant: "acme"}); code != http.StatusAccepted {
		t.Errorf("post-refill request rejected: %d %s", code, data)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// No Start(): nothing drains the queue, so admission must bound it.
	s, err := New(Config{DataDir: t.TempDir(), QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec := molSpec(testMol(30, 6))

	for i := 0; i < 2; i++ {
		if code, data := postJob(t, ts.URL, JobRequest{Molecule: spec}); code != http.StatusAccepted {
			t.Fatalf("fill request %d: %d %s", i, code, data)
		}
	}
	code, data := postJob(t, ts.URL, JobRequest{Molecule: spec})
	if code != http.StatusTooManyRequests {
		t.Fatalf("full-queue status %d: %s", code, data)
	}
	doc := decodeError(t, data)
	if doc.Code != CodeOverloaded {
		t.Errorf("full-queue code %q", doc.Code)
	}
	if doc.RetryAfterSec < 1 {
		t.Errorf("full-queue Retry-After %d, want >= 1 (modeled cost of 2 queued jobs)", doc.RetryAfterSec)
	}
	// The modeled cost must scale with what is queued: two 30-atom jobs
	// at the seeded ops/atom rate.
	wantOps := int64(2 * 2000 * 30)
	if got := s.queuedOps.Load(); got != wantOps {
		t.Errorf("queued ops %d, want %d", got, wantOps)
	}
}

func TestDeadlineExpiredInQueueFailsTyped(t *testing.T) {
	// Stage a job with an already-hopeless deadline, then start workers.
	s, err := New(Config{DataDir: t.TempDir(), QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(30, 7)), DeadlineMS: 1})
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the 1ms deadline lapse in queue
	s.Start()
	defer s.Drain()
	view := awaitTerminal(t, ts.URL, accepted.ID)
	if view.State != StateFailed || view.Error == nil || view.Error.Code != CodeDeadlineExceeded {
		t.Errorf("queued-past-deadline view %+v", view)
	}
}

func TestShedUnderQueuePressureIsPricedAndBounded(t *testing.T) {
	// ShedQueueDepth 0 defaults to half the queue; with depth 1 every
	// job admitted while another waits starts pre-shed.
	s, err := New(Config{DataDir: t.TempDir(), QueueDepth: 8, ShedQueueDepth: 1, DefaultProcesses: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mol := testMol(150, 11)
	ids := make([]string, 3)
	for i := range ids {
		code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(mol)})
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %s", i, code, data)
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	s.Start()
	defer s.Drain()
	ref := refRun(t, mol, 3)
	shed := 0
	for _, id := range ids {
		view := awaitTerminal(t, ts.URL, id)
		if view.State != StateDone || view.Result == nil {
			t.Fatalf("job %s: %+v", id, view)
		}
		if !view.Result.Shed {
			continue
		}
		shed++
		// Shedding is visible and priced: Degraded, factor > 1, and the
		// bound really contains the distance to the unrelaxed energy.
		if !view.Result.Degraded || view.Result.EpsFactor <= 1 || view.Result.ErrorBound <= 0 {
			t.Errorf("shed job %s not priced: %+v", id, view.Result)
		}
		if diff := math.Abs(view.Result.Epol - ref.Result.Epol); diff > view.Result.ErrorBound {
			t.Errorf("shed job %s: |Δ|=%g outside bound %g", id, diff, view.Result.ErrorBound)
		}
	}
	if shed == 0 {
		t.Error("queue of 3 jobs above ShedQueueDepth=1 shed nothing")
	}
}

// A non-finite shed factor used to pass New (NaN survives the "≤ 1 means
// default" rule) and then fail every pre-shed job at WithAccuracy.
func TestNewRejectsNonFiniteShedEpsFactor(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := New(Config{ShedEpsFactor: f}); err == nil {
			t.Errorf("New accepted ShedEpsFactor %v", f)
		}
	}
	if _, err := New(Config{ShedEpsFactor: 2}); err != nil {
		t.Errorf("New refused a finite ShedEpsFactor: %v", err)
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz before drain = %d", code)
	}
	if code := get("/livez"); code != http.StatusOK {
		t.Errorf("/livez before drain = %d", code)
	}
	s.Drain()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d", code)
	}
	if code := get("/livez"); code != http.StatusOK {
		t.Errorf("/livez after drain = %d (liveness must survive drain)", code)
	}
	// Admission is closed, typed.
	code, data := postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(10, 1))})
	if code != http.StatusServiceUnavailable || decodeError(t, data).Code != CodeDraining {
		t.Errorf("post-drain POST: %d %s", code, data)
	}
}

// Two valid atoms 2·10⁴ Å apart used to end the whole process: the
// worker's surface build asked for a 164 GB neighbour grid, and since the
// job is durable a restarted daemon would re-queue it and die again. The
// job must reach a terminal state, and the server must keep answering.
func TestFarApartAtomsJobDoesNotKillServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const far = 9999.999
	spec := MoleculeSpec{Name: "far", Atoms: []AtomSpec{
		{X: -far, Y: -far, Z: -far, Radius: 1.5, Charge: 1},
		{X: far, Y: far, Z: far, Radius: 1.5, Charge: -1},
	}}
	code, data := postJob(t, ts.URL, JobRequest{Molecule: spec})
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %s", code, data)
	}
	var accepted JobView
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("accepted view %s: %v", data, err)
	}
	awaitTerminal(t, ts.URL, accepted.ID)

	code, data = postJob(t, ts.URL, JobRequest{Molecule: molSpec(testMol(50, 5))})
	if code != http.StatusAccepted {
		t.Fatalf("POST after the two-atom job: status %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("accepted view %s: %v", data, err)
	}
	if view := awaitTerminal(t, ts.URL, accepted.ID); view.State != StateDone {
		t.Errorf("next job ended %s, want %s", view.State, StateDone)
	}
}
