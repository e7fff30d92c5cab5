package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"gbpolar/internal/molecule"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs           submit a job  → 202 {id, state, retry hints}
//	GET  /v1/jobs/{id}      poll a job    → 200 JobView
//	GET  /v1/traces/{t-id}  fetch a job's newest persisted attempt trace
//	                        (Chrome trace-event JSON, gbtrace-ready)
//	GET  /readyz            admission open? 200 / 503 while draining
//	GET  /livez             process up?     always 200
//
// Every non-2xx body is a typed ErrorDoc. The handler never panics on
// any input: malformed JSON, oversized bodies, NaN coordinates, and
// unknown IDs all map to typed errors (the http server would turn a
// panic into a dropped connection — and gblint's panicfree analyzer
// polices this package like the rest of internal/).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	mux.HandleFunc("/v1/traces/", s.handleTraceByID)
	mux.HandleFunc("/livez", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ok, detail := s.Ready(); !ok {
			http.Error(w, "not ready: "+detail, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON writes v with status code. Encoding our own response types
// cannot fail; a broken client connection is the client's problem.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a typed ErrorDoc, with a Retry-After header when
// the document carries one.
func writeError(w http.ResponseWriter, status int, doc ErrorDoc) {
	if doc.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", doc.RetryAfterSec))
	}
	writeJSON(w, status, struct {
		Error ErrorDoc `json:"error"`
	}{doc})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ErrorDoc{
			Code: CodeMalformed, Message: "POST a JobRequest to /v1/jobs"})
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.count("serve.rejected.malformed", 1)
		writeError(w, http.StatusBadRequest, ErrorDoc{
			Code: CodeMalformed, Message: "decoding request: " + err.Error()})
		return
	}
	j, retryAfter, err := s.admit(&req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.snapshot())
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, ErrorDoc{
			Code: CodeDraining, Message: "daemon is draining; resubmit elsewhere or after restart"})
	case errors.Is(err, errOverQuota):
		writeError(w, http.StatusTooManyRequests, ErrorDoc{
			Code: CodeOverQuota, Message: fmt.Sprintf("tenant %q is over its admission quota", req.Tenant),
			RetryAfterSec: max(retryAfter, 1)})
	case errors.Is(err, errQueueFull):
		writeError(w, http.StatusTooManyRequests, ErrorDoc{
			Code:          CodeOverloaded,
			Message:       fmt.Sprintf("admission queue is full (%d jobs); Retry-After models the queued work's cost", s.cfg.QueueDepth),
			RetryAfterSec: retryAfter})
	case errors.Is(err, errOverMemory):
		writeError(w, http.StatusTooManyRequests, ErrorDoc{
			Code:          CodeMemoryPressure,
			Message:       "modeled memory footprint exceeds the free budget at every layout; memory frees as running jobs finish",
			RetryAfterSec: retryAfter})
	case errors.Is(err, errTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, ErrorDoc{
			Code:    CodeTooLarge,
			Message: "modeled memory footprint exceeds the daemon's whole budget even at one process; retrying cannot help"})
	case errors.Is(err, molecule.ErrInvalidInput):
		writeError(w, http.StatusBadRequest, ErrorDoc{
			Code: CodeInvalidInput, Message: err.Error()})
	default:
		writeError(w, http.StatusInternalServerError, ErrorDoc{
			Code: CodeInternal, Message: err.Error()})
	}
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, ErrorDoc{
			Code: CodeMalformed, Message: "GET /v1/jobs/{id}"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, ErrorDoc{
			Code: CodeNotFound, Message: "job id missing or malformed"})
		return
	}
	view, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorDoc{
			Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleTraceByID serves the newest persisted attempt trace of the job
// behind a trace ID. The t-/j- prefix mapping is derivational, so no
// lookup table can go stale; the job itself must still be known (running
// or done) — trace IDs are not a way to probe the data directory.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, ErrorDoc{
			Code: CodeMalformed, Message: "GET /v1/traces/{trace_id}"})
		return
	}
	tid := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if tid == "" || strings.Contains(tid, "/") || !strings.HasPrefix(tid, "t-") {
		writeError(w, http.StatusNotFound, ErrorDoc{
			Code: CodeNotFound, Message: "trace id missing or malformed (want t-<hex>)"})
		return
	}
	jobID := jobIDForTrace(tid)
	if _, ok := s.lookup(jobID); !ok {
		writeError(w, http.StatusNotFound, ErrorDoc{
			Code: CodeNotFound, Message: fmt.Sprintf("no trace %q", tid)})
		return
	}
	path := ""
	if s.cfg.DataDir != "" {
		path, _ = s.latestTraceFile(jobID)
	}
	if path == "" {
		writeError(w, http.StatusNotFound, ErrorDoc{
			Code: CodeNotFound, Message: fmt.Sprintf("trace %q has no persisted attempts (job may not have run yet, or the daemon runs without a data dir)", tid)})
		return
	}
	data, err := s.cfg.FS.ReadFile(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrorDoc{
			Code: CodeInternal, Message: "reading trace: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
