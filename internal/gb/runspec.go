package gb

import (
	"context"
	"fmt"
	"io"

	"gbpolar/internal/obs"
)

// RunSpec selects the layout of one full polarization-energy computation
// and carries its cross-cutting options. Every layout runs through one
// driver: P message-passing ranks × p work-stealing threads per rank. The
// zero value is one rank and one thread, the serial octree baseline:
//
//	Run(RunSpec{})                                     // serial (P = p = 1)
//	Run(RunSpec{ThreadsPerProcess: 12})                // shared memory (OCT_CILK)
//	Run(RunSpec{Processes: 12})                        // message passing (OCT_MPI)
//	Run(RunSpec{Processes: 2, ThreadsPerProcess: 6})   // hybrid (OCT_MPI+CILK)
//
// Faults, Obs, Ctx, Checkpoint and Resume apply to every layout: there
// are no per-combination entry points.
type RunSpec struct {
	// Processes is the number of message-passing ranks P. Zero means one.
	Processes int
	// ThreadsPerProcess is the per-rank work-stealing pool width p. Zero
	// means one thread.
	ThreadsPerProcess int
	// Faults replays a fault-injection plan against the run (see
	// faulttol.go). Nil, or a config without a plan, means a clean run.
	Faults *FaultConfig
	// Obs collects spans, counters, and gauges for the run (see
	// internal/obs). Nil disables instrumentation at zero cost; recording
	// never changes the computed numbers.
	Obs *obs.Recorder
	// Flight receives the recorder's flight dump — each rank's ring of
	// recent span/comm/fault events — when the run needed recovery or
	// came back Degraded, so post-mortems don't require re-running with
	// tracing on. Nil (or a nil Obs) disables the dump.
	Flight io.Writer
	// Checkpoint receives an encoded phase snapshot after each completed
	// algorithm phase (see checkpoint.go). Saving is communication- and counter-neutral: a run with a sink
	// produces bitwise-identical numbers and summaries to one without.
	Checkpoint CheckpointSink
	// Resume re-enters the pipeline at the snapshot's phase instead of
	// starting from scratch. The snapshot must come from a system with the
	// same configuration tag (ε may differ — see Accuracy.Relaxed); the
	// process count may differ from the saving run's.
	Resume *Checkpoint
	// Trace is the request identity of the job this run serves (see
	// obs.TraceContext): Run stamps it onto Obs before the drivers open
	// their first span, so every span, flight event, and export of the
	// run carries it. The zero value leaves Obs untouched. Stamping is
	// write-only instrumentation — it never changes computed numbers.
	Trace obs.TraceContext
	// Ctx cancels the run cooperatively. The driver checks it up front and
	// at phase boundaries: a completed phase still saves its checkpoint,
	// then every rank returns ErrRunCanceled (wrapping ctx.Err()) before
	// starting the next phase — so a canceled run loses at most one
	// phase of work and its store resumes bitwise-identically later.
	// This is the graceful-drain hook of the serving layer. Nil means
	// never canceled.
	Ctx context.Context
}

// ErrRunCanceled marks a run stopped by RunSpec.Ctx at a phase boundary.
// The last completed phase's checkpoint (if a sink was attached) is
// durable; errors.Is(err, ErrRunCanceled) and errors.Is(err, ctx.Err())
// both hold on the returned error.
var ErrRunCanceled = fmt.Errorf("gb: run canceled")

// canceled returns the wrapped cancellation error if spec.Ctx is done.
func (spec *RunSpec) canceled() error {
	if spec.Ctx == nil {
		return nil
	}
	if err := spec.Ctx.Err(); err != nil {
		return fmt.Errorf("%w at phase boundary: %w", ErrRunCanceled, err)
	}
	return nil
}

// Run executes the computation the spec describes. It is the single
// driver entry point.
func (s *System) Run(spec RunSpec) (*Result, error) {
	if !spec.Trace.IsZero() {
		spec.Obs.SetTrace(spec.Trace)
	}
	res, err := s.dispatch(spec)
	if err != nil {
		return nil, err
	}
	spec.Obs.Gauge("run.wall_us", res.Wall.Microseconds())
	if spec.Flight != nil && spec.Obs != nil && (res.Degraded || res.Recovered) {
		if _, werr := io.WriteString(spec.Flight, spec.Obs.FlightDump()); werr != nil {
			return nil, fmt.Errorf("gb: writing flight dump: %w", werr)
		}
	}
	return res, nil
}

func (s *System) dispatch(spec RunSpec) (*Result, error) {
	if err := spec.canceled(); err != nil {
		return nil, err
	}
	if spec.Processes < 0 {
		return nil, fmt.Errorf("gb: invalid spec: Processes=%d must be non-negative", spec.Processes)
	}
	if spec.ThreadsPerProcess < 0 {
		return nil, fmt.Errorf("gb: invalid spec: ThreadsPerProcess=%d must be non-negative", spec.ThreadsPerProcess)
	}
	if spec.Resume != nil {
		if err := s.validateResume(spec.Resume); err != nil {
			return nil, err
		}
	}
	return s.runDistributed(max(spec.Processes, 1), max(spec.ThreadsPerProcess, 1), spec)
}
