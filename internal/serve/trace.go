package serve

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gbpolar/internal/obs"
	"gbpolar/internal/obs/critpath"
)

// Trace persistence, one directory per job under the job's DataDir
// entry:
//
//	<id>/trace/attempt-<n>.json   the Chrome-trace export of attempt n
//	                              (1-based, numbered on across daemon
//	                              restarts), written atomically right
//	                              after the attempt ends
//
// The trace ID is derived from the job ID ("j-<hex>" → "t-<hex>") so a
// resumed job recomputes the same trace identity without persisting a
// separate mapping, and GET /v1/traces/{trace_id} inverts it without a
// lookup table.

// traceIDFor derives a job's stable trace ID from its job ID.
func traceIDFor(jobID string) string { return "t-" + strings.TrimPrefix(jobID, "j-") }

// jobIDForTrace inverts traceIDFor.
func jobIDForTrace(traceID string) string { return "j-" + strings.TrimPrefix(traceID, "t-") }

func (s *Server) traceDir(jobID string) string { return filepath.Join(s.jobDir(jobID), "trace") }

// traceFor mints the request identity stamped on every span, flight
// event, and comm record of the job's runs. A resumed job's attempts
// are numbered on from the newest trace an earlier process persisted,
// so no attempt overwrites another's file and the newest file is the
// newest attempt.
func (s *Server) traceFor(j *job) obs.TraceContext {
	tc := obs.TraceContext{TraceID: traceIDFor(j.id), Job: j.id, Tenant: j.req.Tenant}
	if j.resumed {
		_, tc.Attempt = s.latestTraceFile(j.id)
	}
	return tc
}

// persistAttemptTrace durably records one attempt's Chrome trace next to
// the job's checkpoints. Persistence failures are counted, never fatal:
// a job must not fail because its trace could not be written.
func (s *Server) persistAttemptTrace(jobID string, attempt int, rec *obs.Recorder) error {
	dir := s.traceDir(jobID)
	if err := s.cfg.FS.MkdirAll(dir); err != nil {
		return fmt.Errorf("serve: creating trace dir: %w", err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec); err != nil {
		return fmt.Errorf("serve: encoding trace: %w", err)
	}
	name := fmt.Sprintf("attempt-%d.json", attempt)
	if err := s.writeFileAtomic(filepath.Join(dir, name), buf.Bytes()); err != nil {
		return fmt.Errorf("serve: persisting trace: %w", err)
	}
	return nil
}

// latestTraceFile returns the newest attempt's persisted trace for a
// job and its attempt number, or ("", 0) when none exists.
func (s *Server) latestTraceFile(jobID string) (path string, attempt int) {
	entries, err := s.cfg.FS.ReadDir(s.traceDir(jobID))
	if err != nil {
		return "", 0
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "attempt-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "attempt-"), ".json"))
		if err == nil && n > attempt {
			path, attempt = filepath.Join(s.traceDir(jobID), name), n
		}
	}
	return path, attempt
}

// sanitizeTenant maps a tenant name onto the metric-name alphabet so it
// can label the per-tenant SLO series ("" shares the default bucket,
// mirroring the quota layer).
func sanitizeTenant(tenant string) string {
	if tenant == "" {
		return "default"
	}
	var b strings.Builder
	for _, r := range tenant {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// observeSLO records a finished job's per-tenant latency split — queue
// wait, run, total — as gauge-side histograms with the job's trace ID as
// exemplar, so a bad percentile on /metrics links straight to a
// persisted trace.
func (s *Server) observeSLO(j *job, queueWait, run time.Duration) {
	tenant := sanitizeTenant(j.req.Tenant)
	tid := traceIDFor(j.id)
	s.rec.ObserveGaugeEx("slo.queue_wait_us.tenant."+tenant, queueWait.Microseconds(), tid)
	s.rec.ObserveGaugeEx("slo.run_us.tenant."+tenant, run.Microseconds(), tid)
	s.rec.ObserveGaugeEx("slo.total_us.tenant."+tenant, (queueWait + run).Microseconds(), tid)
}

// publishCritPath runs the cross-rank critical-path analyzer over a
// successful job's winning attempt and publishes its gauges
// (critpath.comm_frac, critpath.slack_us.rank*) onto the server
// recorder. Analysis is observational: it reads the recorder, never
// mutates it.
func (s *Server) publishCritPath(rec *obs.Recorder) {
	if rec == nil || s.rec == nil {
		return
	}
	rep := critpath.Analyze(critpath.FromRecorder(rec), 0)
	if rep.WallUs <= 0 {
		return
	}
	critpath.PublishGauges(s.rec, rep)
}
