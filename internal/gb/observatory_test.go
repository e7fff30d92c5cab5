package gb

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"gbpolar/internal/fault"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
)

// TestFlightDumpOnRecovery pins the flight-recorder contract: a run that
// needed recovery writes a dump to RunSpec.Flight, the dump interleaves
// span, comm, and fault events per rank, and — for a crash-free
// deterministic plan — the dump text is byte-identical run to run.
func TestFlightDumpOnRecovery(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	run := func() string {
		var buf bytes.Buffer
		rec := obs.NewRecorder(perf.StartTimer().Elapsed)
		rec.SetLabel("flight-test")
		res, err := s.Run(RunSpec{
			Processes: 3,
			Faults:    &FaultConfig{Plan: crashFreePlan()},
			Obs:       rec,
			Flight:    &buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Recovered {
			t.Fatal("crash-free plan with a straggler should report Recovered")
		}
		return buf.String()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("recovered run wrote no flight dump")
	}
	if a != b {
		t.Errorf("flight dumps differ between identical runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"flight recorder: flight-test\n",
		"rank 0:", "rank 1:", "rank 2:",
		"span  " + spanBorn + "\n",
		"comm  comm:allreduce\n",
		"fault straggle\n",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("flight dump lacks %q:\n%s", want, a)
		}
	}
}

// TestNoFlightDumpOnCleanRun: a clean run must stay silent even with a
// Flight writer armed.
func TestNoFlightDumpOnCleanRun(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	var buf bytes.Buffer
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	if _, err := s.Run(RunSpec{Processes: 2, Obs: rec, Flight: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("clean run wrote a flight dump:\n%s", buf.String())
	}
}

// TestServeDoesNotChangeNumbers is the live-endpoint acceptance
// criterion: a run with obs.Serve scraping the recorder mid-flight is
// bitwise identical to one with no recorder at all, and /metrics answers
// in Prometheus text while the run's recorder is attached.
func TestServeDoesNotChangeNumbers(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	spec := RunSpec{Processes: 2, ThreadsPerProcess: 2}

	plain, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	rec.SetLabel("served")
	srv, err := obs.Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	withServe := spec
	withServe.Obs = rec
	observed, err := s.Run(withServe)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseSame(t, "serve", plain, observed)

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE gbpolar_pairs_born_near counter\n",
		"# TYPE gbpolar_pairs_born_near_rank histogram\n",
		`gbpolar_pairs_born_near_rank_count{run="served"} 2` + "\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
}

// TestHealthSourceRegistered: a distributed run leaves a live-rank view
// on the recorder (registered by simmpi), so /healthz has data even
// after the run completes.
func TestHealthSourceRegistered(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	res, err := s.Run(RunSpec{
		Processes: 4,
		Faults: &FaultConfig{
			Plan:   &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 2, AtOp: 2}}},
			Policy: Recover,
		},
		Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"lost":[2]`) {
		t.Errorf("/healthz does not report the crashed rank (lost %v):\n%s", res.LostRanks, body)
	}
}
