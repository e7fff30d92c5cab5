package serve

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"gbpolar/internal/fault"
)

// TestChaosUnderLoad is the acceptance gate of the serving layer: nine
// concurrent clients — valid jobs, malformed bodies, invalid
// molecules, and a quota-blowing tenant — against a daemon whose runs
// are fault-injected with crash/straggle/corrupt chaos plans. The
// invariants:
//
//   - every admitted job reaches a terminal state, and that state is
//     OK (bitwise-checkable against a reference), Degraded with an
//     ErrorBound that contains the damage, or a typed error;
//   - every rejected request carries a typed error envelope;
//   - nothing panics (a panic fails the test run);
//   - no goroutines leak once the daemon drains.
func TestChaosUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const P = 3
	mol := testMol(150, 31)
	ref := refRun(t, mol, P)

	s, err := New(Config{
		DataDir:          t.TempDir(),
		DefaultProcesses: P,
		QueueDepth:       6,
		Retries:          1,
		Quota:            QuotaConfig{RatePerSec: 1, Burst: 3},
		PlanFor: func(jobID string, attempt int) *fault.Plan {
			// Deterministic per-job chaos — crashes, stragglers, and
			// (for half the jobs) payload corruption — on early
			// attempts; the ladder earns completion.
			h := fnv.New64a()
			h.Write([]byte(jobID))
			seed := int64(h.Sum64()%100000) + int64(attempt)
			if attempt >= 3 {
				return nil // let late rungs through: bounded test time
			}
			if seed%2 == 0 {
				return fault.ChaosWithCorruption(seed, P, 3)
			}
			return fault.Chaos(seed, P, 3)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())

	spec := molSpec(mol)
	var (
		mu       sync.Mutex
		jobIDs   []string
		rejects  = map[string]int{} // error code → count
		statuses = map[int]int{}
	)
	record := func(code int, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		statuses[code]++
		if code == http.StatusAccepted {
			var v JobView
			if json.Unmarshal(data, &v) == nil && v.ID != "" {
				jobIDs = append(jobIDs, v.ID)
			} else {
				t.Errorf("202 without a job view: %s", data)
			}
			return
		}
		var doc struct {
			Error ErrorDoc `json:"error"`
		}
		if json.Unmarshal(data, &doc) != nil || doc.Error.Code == "" {
			t.Errorf("status %d without a typed error envelope: %s", code, data)
			return
		}
		rejects[doc.Error.Code]++
	}

	var wg sync.WaitGroup
	client := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	// 4 well-behaved clients, distinct tenants, 2 jobs each.
	for c := 0; c < 4; c++ {
		tenant := string(rune('a' + c))
		client(func() {
			for i := 0; i < 2; i++ {
				code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Tenant: tenant})
				record(code, data)
			}
		})
	}
	// 2 clients sending invalid molecules (negative radius).
	for c := 0; c < 2; c++ {
		client(func() {
			bad := molSpec(mol)
			bad.Atoms[0].Radius = -4
			code, data := postJob(t, ts.URL, JobRequest{Molecule: bad, Tenant: "bad"})
			record(code, data)
		})
	}
	// 2 clients sending garbage bodies.
	for c := 0; c < 2; c++ {
		client(func() {
			code, data := postRaw(t, ts.URL, []byte(`{"molecule": [this is not json`))
			record(code, data)
		})
	}
	// 1 greedy tenant hammering one bucket.
	client(func() {
		for i := 0; i < 6; i++ {
			code, data := postJob(t, ts.URL, JobRequest{Molecule: spec, Tenant: "greedy"})
			record(code, data)
		}
	})
	wg.Wait()

	if statuses[http.StatusAccepted] == 0 {
		t.Fatal("no job was admitted")
	}
	if rejects[CodeInvalidInput] < 2 || rejects[CodeMalformed] < 2 {
		t.Errorf("typed rejections %v, want >=2 invalid_input and >=2 malformed", rejects)
	}
	if rejects[CodeOverQuota]+rejects[CodeOverloaded] == 0 {
		t.Errorf("greedy tenant (6 posts, burst 3) plus queue depth 6 drew no 429: %v", rejects)
	}

	// Every admitted job terminates as OK, Degraded-with-a-true-bound,
	// or a typed error.
	for _, id := range jobIDs {
		view := awaitTerminal(t, ts.URL, id)
		switch view.State {
		case StateDone:
			res := view.Result
			if res == nil {
				t.Errorf("job %s done without a result", id)
				continue
			}
			diff := math.Abs(res.Epol - ref.Result.Epol)
			if res.Degraded {
				if res.ErrorBound > 0 {
					if diff > res.ErrorBound {
						t.Errorf("job %s: degraded |Δ|=%g outside bound %g", id, diff, res.ErrorBound)
					}
				} else if diff > 1e-9*math.Abs(ref.Result.Epol) {
					// A zero-bound degraded result (clean fallback) is
					// numerically a full-accuracy run.
					t.Errorf("job %s: zero-bound degraded Epol off by %g", id, diff)
				}
			} else if diff > 1e-9*math.Abs(ref.Result.Epol) {
				// Healed runs match the reference to tight relative
				// tolerance even when ranks crashed and recovered.
				t.Errorf("job %s: non-degraded Epol %v vs reference %v", id, res.Epol, ref.Result.Epol)
			}
		case StateFailed:
			if view.Error == nil || view.Error.Code == "" {
				t.Errorf("job %s failed without a typed error: %+v", id, view)
			}
		default:
			t.Errorf("job %s in non-terminal state %q after completion wait", id, view.State)
		}
	}

	ts.Close()
	s.Drain()

	// Goroutine settle: everything the daemon started must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
