// Command gbd is the Epol serving daemon: a long-lived process that
// accepts molecule jobs over HTTP/JSON and runs each through the
// supervised escalation ladder with phase checkpoints.
//
// Usage:
//
//	gbd -data-dir /var/lib/gbd                  # serve on 127.0.0.1:8677
//	gbd -data-dir d -addr :0                    # pick a free port (printed)
//	gbd -data-dir d -obs-addr 127.0.0.1:9090    # live /metrics + pprof
//	gbd -data-dir d -quota-rate 2 -quota-burst 5
//
// API (every non-2xx body is a typed {"error": {code, message}}):
//
//	POST /v1/jobs       submit {molecule:{name,atoms:[{x,y,z,radius,charge}]},
//	                    processes?, threads?, deadline_ms?, tenant?, seed?}
//	                    → 202 {id, state} | 400 | 429 (+Retry-After) | 503
//	GET  /v1/jobs/{id}  → 200 {id, state, trace_id, result?, error?}
//	GET  /v1/traces/{t} → 200 newest persisted attempt trace (Chrome
//	                    trace-event JSON; analyze with gbtrace)
//	GET  /readyz        200 while admitting; 503 once draining
//	GET  /livez         200 while the process is up
//
// On SIGTERM or SIGINT the daemon drains: admission closes, in-flight
// jobs checkpoint at their next phase boundary, and the process exits 0.
// A restart over the same -data-dir re-queues unfinished jobs; each
// resumes from its newest checkpoint to a bitwise-identical result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/serve"
)

// logJSON emits one structured single-line JSON event on stderr, next
// to the human-readable lines (which stay — the smoke test and operator
// muscle memory both parse them). encoding/json renders map keys
// sorted, so the lines are stable enough to grep and diff.
func logJSON(event string, fields map[string]any) {
	doc := map[string]any{"event": event, "ts": time.Now().UTC().Format(time.RFC3339Nano)}
	for k, v := range fields {
		doc[k] = v
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return
	}
	fmt.Fprintln(os.Stderr, string(data))
}

// buildVersion reports the module version baked into the binary, or
// "devel" for a plain `go build` of the working tree.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8677", "job API listen address (\":0\" picks a free port)")
		obsAddr    = flag.String("obs-addr", "", "optional obs endpoint address (/metrics, /healthz, /readyz, /livez, pprof)")
		dataDir    = flag.String("data-dir", "", "job persistence root (required)")
		queue      = flag.Int("queue-depth", 16, "admission queue bound")
		workers    = flag.Int("workers", 1, "concurrent supervised runs")
		maxAtoms   = flag.Int("max-atoms", 20000, "largest accepted roster")
		bigP       = flag.Int("P", 4, "default processes per job")
		smallP     = flag.Int("p", 1, "default threads per process")
		retries    = flag.Int("retries", 2, "supervised retry budget per job")
		quotaRate  = flag.Float64("quota-rate", 0, "per-tenant admission rate (jobs/sec, 0 = no quotas)")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant burst (default max(1, rate))")
		shedDepth  = flag.Int("shed-depth", 0, "queue depth that pre-sheds new jobs onto their accuracy ladder's first step (0 = queue-depth/2, negative = never)")
		keep       = flag.Int("keep-checkpoints", 1, "checkpoint snapshots retained per job after completion")
		ckptDelay  = flag.Duration("checkpoint-delay", 0, "slow every checkpoint save (test knob: widens the drain window)")
		memBudget  = flag.Int64("mem-budget", 1<<30, "memory budget in bytes for the modeled resident size of admitted work (413 when one serial job exceeds it, 429 when the fleet would)")
		maxRetry   = flag.Int64("max-retry-after", 60, "upper clamp in seconds on modeled Retry-After headers (lower clamp is 1s)")
	)
	flag.Parse()
	if *dataDir == "" {
		fatal(fmt.Errorf("-data-dir is required"))
	}

	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	rec.SetLabel("gbd")

	daemon, err := serve.New(serve.Config{
		DataDir:          *dataDir,
		QueueDepth:       *queue,
		Workers:          *workers,
		MaxAtoms:         *maxAtoms,
		DefaultProcesses: *bigP,
		DefaultThreads:   *smallP,
		Retries:          *retries,
		Quota:            serve.QuotaConfig{RatePerSec: *quotaRate, Burst: *quotaBurst},
		ShedQueueDepth:   *shedDepth,
		KeepCheckpoints:  *keep,
		CheckpointDelay:  *ckptDelay,
		MemBudgetBytes:   *memBudget,
		MaxRetryAfterSec: *maxRetry,
		Obs:              rec,
	})
	if err != nil {
		fatal(err)
	}
	daemon.Start()

	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, rec)
		if err != nil {
			fatal(err)
		}
		defer osrv.Close()
		osrv.SetReadySource(daemon.Ready)
		fmt.Fprintf(os.Stderr, "gbd: obs endpoint on http://%s\n", osrv.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: daemon.Handler()}
	fmt.Fprintf(os.Stderr, "gbd: serving jobs on http://%s\n", ln.Addr())
	logJSON("start", map[string]any{
		"version":           buildVersion(),
		"addr":              ln.Addr().String(),
		"obs_addr":          *obsAddr,
		"data_dir":          *dataDir,
		"queue_depth":       *queue,
		"workers":           *workers,
		"default_processes": *bigP,
		"default_threads":   *smallP,
		"retries":           *retries,
		"mem_budget":        *memBudget,
		"max_retry_after":   *maxRetry,
		"jobs_requeued":     daemon.ResumedJobs(),
		"queued":            daemon.QueueDepth(),
	})

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		// Drain: admission closes immediately (typed 503s), the HTTP
		// server keeps answering polls, in-flight jobs stop at their
		// next phase boundary with durable checkpoints.
		fmt.Fprintf(os.Stderr, "gbd: %v: draining (admission closed, checkpointing in-flight jobs)\n", s)
		logJSON("drain", map[string]any{"signal": s.String(), "queued": daemon.QueueDepth()})
		start := time.Now()
		daemon.Drain()
		_ = httpSrv.Close()
		fmt.Fprintf(os.Stderr, "gbd: drained in %v\n", time.Since(start).Round(time.Millisecond))
		// What's still queued after drain is exactly what the next start
		// re-queues from disk.
		logJSON("exit", map[string]any{
			"drain_ms":            time.Since(start).Milliseconds(),
			"jobs_for_next_start": daemon.QueueDepth(),
		})
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gbd:", err)
	os.Exit(1)
}
