package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gbpolar/internal/molecule"
	"gbpolar/internal/serve"
)

// TestServeSmoke is the process-level smoke test behind `make
// serve-smoke`: it builds the real gbd binary, starts it on a free
// port, and walks the serving contract end to end —
//
//  1. a good request completes with a result;
//  2. a malformed molecule gets a typed 400, an over-quota burst a
//     typed 429, never a crash;
//  3. SIGTERM with a job in flight drains cleanly (exit 0), and the
//     restarted daemon resumes the job to a byte-for-byte identical
//     result (same epol_bits, same born_crc32) as the uninterrupted
//     run of the same molecule.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "gbd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building gbd: %v", err)
	}
	dataDir := t.TempDir()

	// Phase 1: daemon with slowed checkpoints (so SIGTERM can land
	// mid-job) and a tight quota for the 429 probe.
	d1 := startDaemon(t, bin,
		"-data-dir", dataDir, "-addr", "127.0.0.1:0",
		"-P", "3", "-checkpoint-delay", "80ms",
		"-quota-rate", "0.2", "-quota-burst", "2")

	mol := molSpecJSON("smoke", 150, 21)

	// 1. Good request, uninterrupted: the byte-for-byte reference.
	refID := submit(t, d1.base, jobBody(mol, "ref"))
	ref := awaitDone(t, d1.base, refID)
	if ref.Result == nil || ref.Result.EpolBits == "" || ref.Result.BornCRC32 == "" {
		t.Fatalf("reference job: %+v", ref)
	}

	// 2a. Malformed molecule → typed 400.
	bad := strings.Replace(mol, `"radius":`, `"radius":-`, 1)
	code, body := post(t, d1.base, jobBody(bad, "bad"))
	if code != http.StatusBadRequest || !strings.Contains(body, serve.CodeInvalidInput) {
		t.Errorf("bad molecule: %d %s", code, body)
	}
	// 2b. Over-quota burst → typed 429 with Retry-After.
	sawQuota := false
	for i := 0; i < 3; i++ {
		if code, body := post(t, d1.base, jobBody(mol, "greedy")); code == http.StatusTooManyRequests {
			sawQuota = strings.Contains(body, serve.CodeOverQuota)
		}
	}
	if !sawQuota {
		t.Error("burst of 3 on a burst-2 bucket never drew a typed 429")
	}

	// 3. SIGTERM with a job in flight.
	victimID := submit(t, d1.base, jobBody(mol, "victim"))
	awaitState(t, d1.base, victimID, "running")
	time.Sleep(120 * time.Millisecond) // inside the slowed phase pipeline
	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d1.wait(30 * time.Second); err != nil {
		t.Fatalf("drain exit: %v", err)
	}

	// The daemon logged structured one-line JSON events for startup and
	// shutdown alongside the human lines.
	for _, want := range []string{"start", "drain", "exit"} {
		if !d1.sawEvent(want) {
			t.Errorf("no structured %q log event on stderr", want)
		}
	}

	// 4. The interrupted victim left a persisted per-attempt trace next
	// to its checkpoints; gbtrace finds a nonempty critical path in it.
	checkJobTrace(t, dataDir, victimID)

	// Restart over the same data dir; the victim resumes.
	d2 := startDaemon(t, bin, "-data-dir", dataDir, "-addr", "127.0.0.1:0", "-P", "3")
	resumed := awaitDone(t, d2.base, victimID)
	if resumed.Result == nil || !resumed.Result.Resumed {
		t.Fatalf("resumed job: %+v", resumed)
	}
	if resumed.Result.EpolBits != ref.Result.EpolBits {
		t.Errorf("resumed epol_bits %s != uninterrupted %s",
			resumed.Result.EpolBits, ref.Result.EpolBits)
	}
	if resumed.Result.BornCRC32 != ref.Result.BornCRC32 {
		t.Errorf("resumed born_crc32 %s != uninterrupted %s",
			resumed.Result.BornCRC32, ref.Result.BornCRC32)
	}
	// The reference job's view survived the restart too.
	again := awaitDone(t, d2.base, refID)
	if again.Result == nil || again.Result.EpolBits != ref.Result.EpolBits {
		t.Errorf("restart lost the reference job's result: %+v", again)
	}
}

// checkJobTrace builds gbtrace, points it at a job's trace directory,
// and requires a well-formed report with a nonempty critical path. When
// GBD_TRACE_ARTIFACT_DIR is set (the CI serve-smoke job), the job's
// traces are copied there for upload.
func checkJobTrace(t *testing.T, dataDir, jobID string) {
	t.Helper()
	traceDir := filepath.Join(dataDir, jobID, "trace")
	entries, err := os.ReadDir(traceDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("job %s has no persisted traces: %v", jobID, err)
	}

	gbtrace := filepath.Join(t.TempDir(), "gbtrace")
	build := exec.Command("go", "build", "-o", gbtrace, "gbpolar/cmd/gbtrace")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building gbtrace: %v", err)
	}
	out, err := exec.Command(gbtrace, "-json", traceDir).Output()
	if err != nil {
		t.Fatalf("gbtrace over %s: %v", traceDir, err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	reports, nonempty := 0, 0
	for dec.More() {
		var rep struct {
			Ranks int `json:"ranks"`
			Path  []struct {
				Kind string `json:"kind"`
			} `json:"critical_path"`
		}
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("gbtrace JSON: %v\n%s", err, out)
		}
		reports++
		if len(rep.Path) > 0 && rep.Ranks == 3 {
			nonempty++
		}
	}
	if reports == 0 || nonempty == 0 {
		t.Fatalf("gbtrace found %d reports, %d with a nonempty 3-rank critical path:\n%s",
			reports, nonempty, out)
	}

	if artDir := os.Getenv("GBD_TRACE_ARTIFACT_DIR"); artDir != "" {
		dst := filepath.Join(artDir, jobID)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatalf("artifact dir: %v", err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(traceDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error

	mu       sync.Mutex
	events   map[string]bool
	scanDone chan struct{}
}

// sawEvent reports whether the daemon emitted a structured JSON log
// line with the given event name. It waits for the stderr scanner to
// finish first, so it is only meaningful after the process exited.
func (d *daemon) sawEvent(event string) bool {
	select {
	case <-d.scanDone:
	case <-time.After(10 * time.Second):
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.events[event]
}

// startDaemon launches the gbd binary and parses its listen address
// from the startup line on stderr.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1),
		events: make(map[string]bool), scanDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "  [gbd]", line)
			if strings.HasPrefix(line, "{") {
				var doc struct {
					Event string `json:"event"`
				}
				if json.Unmarshal([]byte(line), &doc) == nil && doc.Event != "" {
					d.mu.Lock()
					d.events[doc.Event] = true
					d.mu.Unlock()
				}
			}
			if _, after, ok := strings.Cut(line, "serving jobs on http://"); ok {
				select {
				case addrCh <- strings.TrimSpace(after):
				default:
				}
			}
		}
	}()
	// Wait closes the stderr pipe, dropping any line the scanner has not
	// read yet (the daemon's last, the exit event), so it runs only after
	// the scanner reached EOF.
	go func() {
		<-d.scanDone
		d.done <- cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case err := <-d.done:
		t.Fatalf("gbd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("gbd never printed its listen address")
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			<-d.done
		}
	})
	return d
}

// wait blocks for process exit and requires status 0.
func (d *daemon) wait(timeout time.Duration) error {
	select {
	case err := <-d.done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("gbd did not exit within %v", timeout)
	}
}

// molSpecJSON renders a synthetic globule as the request's molecule
// JSON fragment.
func molSpecJSON(name string, atoms int, seed int64) string {
	m := molecule.Exactly(molecule.Globule(name, atoms, seed), atoms, seed)
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%q,"atoms":[`, name)
	for i, a := range m.Atoms {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":%g,"y":%g,"z":%g,"radius":%g,"charge":%g}`,
			a.Pos.X, a.Pos.Y, a.Pos.Z, a.Radius, a.Charge)
	}
	b.WriteString("]}")
	return b.String()
}

func jobBody(molJSON, tenant string) string {
	return fmt.Sprintf(`{"molecule":%s,"tenant":%q}`, molJSON, tenant)
}

func post(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func submit(t *testing.T, base, body string) string {
	t.Helper()
	code, data := post(t, base, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var view serve.JobView
	if err := json.Unmarshal([]byte(data), &view); err != nil || view.ID == "" {
		t.Fatalf("submit response %s: %v", data, err)
	}
	return view.ID
}

func getView(t *testing.T, base, id string) serve.JobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET %s: %v", id, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", id, resp.StatusCode, data)
	}
	var view serve.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatalf("job view %s: %v", data, err)
	}
	return view
}

func awaitState(t *testing.T, base, id, state string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if getView(t, base, id).State == state {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, state)
}

func awaitDone(t *testing.T, base, id string) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		view := getView(t, base, id)
		switch view.State {
		case serve.StateDone:
			return view
		case serve.StateFailed, serve.StateInterrupted:
			t.Fatalf("job %s terminal state %q: %+v", id, view.State, view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return serve.JobView{}
}
