// Package serve is the Epol serving layer: a long-lived daemon core
// that accepts molecule jobs over HTTP/JSON, runs each through the
// internal/supervise escalation ladder with per-request deadlines, and
// holds three promises under load and failure injection:
//
//   - Every response is exactly one of: a correct result, a Degraded
//     result carrying its rigorous ErrorBound, or a typed error. Never
//     a panic, never silence.
//   - Admission is bounded. A full queue answers 429 with a Retry-After
//     derived from the modeled cost of the work already queued (the
//     internal/perf machine model) — clients back off by cost, not by
//     guess, and goroutines never pile up without bound.
//   - Drain is graceful. SIGTERM stops admission, in-flight jobs are
//     checkpointed mid-phase to their per-job DirStore, and a restarted
//     daemon resumes them to bitwise-identical results (the supervised
//     runs always use the deterministic protocol path, so a resumed
//     energy is the same float64, bit for bit).
//
// The package is a library; cmd/gbd is the thin process wrapper that
// adds flags, signal handling, and the obs endpoint.
package serve

import (
	"fmt"
	"math"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
)

// Error codes of the typed error envelope. Every non-2xx response body
// is an ErrorDoc with one of these codes; clients dispatch on the code,
// not the message.
const (
	// CodeMalformed marks a request body that is not valid JSON or not
	// a JobRequest (400).
	CodeMalformed = "malformed_request"
	// CodeInvalidInput marks a molecule that parsed but fails
	// validation: NaN/Inf coordinates, non-positive radii, empty or
	// oversized rosters (400).
	CodeInvalidInput = "invalid_input"
	// CodeOverQuota marks a tenant whose token bucket is empty (429,
	// Retry-After until the next token).
	CodeOverQuota = "over_quota"
	// CodeOverloaded marks a full admission queue (429, Retry-After
	// from the modeled cost of the queued work).
	CodeOverloaded = "overloaded"
	// CodeMemoryPressure marks a job whose modeled footprint exceeds
	// the free memory budget even at the narrowest layout right now
	// (429, Retry-After from the modeled cost of the queued work —
	// memory frees as running jobs complete).
	CodeMemoryPressure = "memory_pressure"
	// CodeTooLarge marks a job whose modeled footprint exceeds the
	// whole memory budget at ANY layout (413): retrying cannot help.
	CodeTooLarge = "too_large"
	// CodeDraining marks a daemon that received SIGTERM and no longer
	// admits work (503).
	CodeDraining = "draining"
	// CodeNotFound marks an unknown job ID (404).
	CodeNotFound = "not_found"
	// CodeDeadlineExceeded marks a job whose deadline expired while it
	// was still queued — it never ran.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeInternal marks a run failure that is not the client's fault.
	CodeInternal = "internal"
)

// ErrorDoc is the typed error envelope.
type ErrorDoc struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSec is set on 429s: how long the client should wait.
	RetryAfterSec int64 `json:"retry_after_sec,omitempty"`
}

// AtomSpec is one atom of a job request.
type AtomSpec struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Z      float64 `json:"z"`
	Radius float64 `json:"radius"`
	Charge float64 `json:"charge"`
}

// MoleculeSpec is the molecule of a job request.
type MoleculeSpec struct {
	Name  string     `json:"name"`
	Atoms []AtomSpec `json:"atoms"`
}

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	Molecule MoleculeSpec `json:"molecule"`
	// Processes and Threads pick the run layout (defaults from the
	// server config).
	Processes int `json:"processes,omitempty"`
	Threads   int `json:"threads,omitempty"`
	// DeadlineMS bounds the job's supervised wall time: past it the
	// supervisor jumps to the always-completing fallback, and a job
	// still queued when it expires fails typed instead of running.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Tenant names the quota bucket ("" shares the default bucket).
	Tenant string `json:"tenant,omitempty"`
	// Seed seeds the supervisor's backoff jitter (deterministic audit
	// trails for a fixed seed).
	Seed int64 `json:"seed,omitempty"`
	// TargetErrorKcal asks the server to auto-tune the accuracy point:
	// the job runs at the cheapest point the internal/tune search admits
	// for this |Epol| error budget (kcal/mol), and the chosen point
	// comes back in the result's "accuracy" envelope. The supervisor's
	// accuracy-shedding ladder then steps down the tuner's admissible
	// frontier instead of scaling ε blindly. 0 keeps the calibrated
	// default accuracy.
	TargetErrorKcal float64 `json:"target_error_kcal,omitempty"`
}

// States of a job.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateInterrupted marks a job stopped by drain: no result yet, its
	// checkpoint is durable, and a restarted daemon re-queues it.
	StateInterrupted = "interrupted"
)

// AccuracyDoc is the accuracy point a job ran at, reported whenever the
// request asked for auto-tuning (target_error_kcal > 0). The fields
// mirror gb.Accuracy; predicted_error_kcal is the tuner's bound for the
// FINAL point — if the supervisor shed accuracy down the ladder, this
// reflects the step actually run, and the shed error is also priced into
// error_bound.
type AccuracyDoc struct {
	EpsBorn            float64 `json:"eps_born"`
	EpsEpol            float64 `json:"eps_epol"`
	BinWidth           float64 `json:"bin_width"`
	QuadOrder          int     `json:"quad_order"`
	Order              int     `json:"order"`
	TargetErrorKcal    float64 `json:"target_error_kcal"`
	PredictedErrorKcal float64 `json:"predicted_error_kcal"`
}

// ResultDoc is the terminal payload of a successful job.
type ResultDoc struct {
	Epol float64 `json:"epol"`
	// EpolBits is Epol's exact bit pattern (hex of math.Float64bits):
	// the drain contract is asserted on bits, not on printed decimals.
	EpolBits string `json:"epol_bits"`
	// BornCRC32 is an IEEE CRC over the Born radii bytes in atom order
	// — a compact bitwise fingerprint of the full per-atom output.
	BornCRC32  string  `json:"born_crc32"`
	Atoms      int     `json:"atoms"`
	Degraded   bool    `json:"degraded"`
	ErrorBound float64 `json:"error_bound"`
	Rung       string  `json:"rung"`
	EpsFactor  float64 `json:"eps_factor"`
	Attempts   int     `json:"attempts"`
	// Shed reports the job was started on a relaxed rung by the
	// overload policy (queue pressure or unhealthy ranks).
	Shed bool `json:"shed,omitempty"`
	// Resumed reports the job picked its checkpoint back up after a
	// daemon restart.
	Resumed bool `json:"resumed,omitempty"`
	// ShrunkProcesses, when nonzero, is the process count the memory
	// admission gate shrank this job to (the request asked for more, the
	// budget's headroom fit fewer). The soak harness uses it to know a
	// result ran on a different layout than the clean oracle.
	ShrunkProcesses int `json:"shrunk_processes,omitempty"`
	// Accuracy is the tuned accuracy point the job ran at (requests
	// with target_error_kcal only).
	Accuracy *AccuracyDoc `json:"accuracy,omitempty"`
}

// JobView is the GET /v1/jobs/{id} body.
type JobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// TraceID is the job's request-trace identity, minted at admission
	// and stable across daemon restarts (it is derived from the job ID).
	// Every span of every attempt carries it, and GET
	// /v1/traces/{trace_id} returns the newest persisted attempt trace.
	TraceID string     `json:"trace_id,omitempty"`
	Result  *ResultDoc `json:"result,omitempty"`
	Error   *ErrorDoc  `json:"error,omitempty"`
}

// buildMolecule converts the wire molecule into a validated
// molecule.Molecule. Size violations are reported here; per-atom
// violations come back as molecule.InputError via Validate.
func buildMolecule(spec MoleculeSpec, maxAtoms int) (*molecule.Molecule, error) {
	if len(spec.Atoms) == 0 {
		return nil, &molecule.InputError{Molecule: spec.Name, Atom: -1, Field: "atoms",
			Msg: "molecule has no atoms"}
	}
	if maxAtoms > 0 && len(spec.Atoms) > maxAtoms {
		return nil, &molecule.InputError{Molecule: spec.Name, Atom: -1, Field: "atoms",
			Msg: fmt.Sprintf("roster of %d atoms exceeds the server's limit of %d", len(spec.Atoms), maxAtoms)}
	}
	name := spec.Name
	if name == "" {
		name = "unnamed"
	}
	m := &molecule.Molecule{Name: name, Atoms: make([]molecule.Atom, len(spec.Atoms))}
	for i, a := range spec.Atoms {
		m.Atoms[i] = molecule.Atom{
			Pos:    geom.V(a.X, a.Y, a.Z),
			Radius: a.Radius,
			Charge: a.Charge,
		}
	}
	return m, m.Validate()
}

// validateRequest is admission's input validation, shared by a new
// request and a persisted one re-queued at startup: the molecule, then
// the thread count, which may not exceed the atom count (at least one
// atom per core, the rule gb applies to the whole layout). Zero and
// negative thread counts mean the server default.
func validateRequest(req *JobRequest, maxAtoms int) (*molecule.Molecule, error) {
	mol, err := buildMolecule(req.Molecule, maxAtoms)
	if err != nil {
		return nil, err
	}
	if req.Threads > mol.NumAtoms() {
		return nil, &molecule.InputError{Molecule: mol.Name, Atom: -1, Field: "threads",
			Msg: fmt.Sprintf("%d threads exceed the molecule's %d atoms (at least one atom per core)", req.Threads, mol.NumAtoms())}
	}
	return mol, nil
}

// epolBits renders the exact bit pattern of a float64.
func epolBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
