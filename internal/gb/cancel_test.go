package gb

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gbpolar/internal/obs"
)

// cancelSink saves like memSink and cancels the context once the target
// phase's snapshot is durable — modeling a drain signal arriving while
// the run is mid-pipeline.
type cancelSink struct {
	memSink
	at     CheckpointPhase
	cancel context.CancelFunc
}

func (k *cancelSink) Save(phase CheckpointPhase, encoded []byte) error {
	if err := k.memSink.Save(phase, encoded); err != nil {
		return err
	}
	if phase == k.at {
		k.cancel()
	}
	return nil
}

func TestRunCanceledBeforeStart(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Run(RunSpec{Processes: 2, Ctx: ctx})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, ErrRunCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap ErrRunCanceled and context.Canceled", err)
	}
}

func TestNilContextNeverCancels(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	if _, err := s.Run(RunSpec{Processes: 2}); err != nil {
		t.Fatalf("nil-Ctx run failed: %v", err)
	}
}

// TestCancelAtPhaseBoundaryResumesBitwise is the drain contract: a run
// canceled at a phase boundary keeps its last completed phase's
// checkpoint, and resuming from it reproduces the uninterrupted run's
// Epol and Born radii bitwise. Serial, shared-memory and message-passing
// layouts share the one driver, so each must honour it, with and without
// the retained FaultConfig.ForceProtocol field set: the field has no
// effect, so setting it must change nothing.
func TestCancelAtPhaseBoundaryResumesBitwise(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	for _, lay := range []struct{ P, p int }{{1, 1}, {1, 4}, {4, 1}} {
		for _, force := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d/force=%v", lay.P, lay.p, force), func(t *testing.T) {
				spec := RunSpec{Processes: lay.P, ThreadsPerProcess: lay.p, Faults: &FaultConfig{ForceProtocol: force}}
				ref := mustRun(t, s, spec)
				for _, at := range []CheckpointPhase{PhaseIntegrals, PhaseRadii, PhaseAggregates} {
					ctx, cancel := context.WithCancel(context.Background())
					sink := &cancelSink{at: at, cancel: cancel}
					canceled := spec
					canceled.Checkpoint, canceled.Ctx = sink, ctx
					_, err := s.Run(canceled)
					cancel()
					if !errors.Is(err, ErrRunCanceled) {
						t.Fatalf("cancel at %s: got error %v, want ErrRunCanceled", at, err)
					}
					ck := sink.latest(t)
					if ck.Phase != at {
						t.Fatalf("cancel at %s: last durable checkpoint is %s", at, ck.Phase)
					}

					resumed := spec
					resumed.Obs, resumed.Resume = obs.NewRecorder(nil), ck
					res, err := s.Run(resumed)
					if err != nil {
						t.Fatalf("resume after cancel at %s: %v", at, err)
					}
					bitwiseSame(t, fmt.Sprintf("cancel at %s", at), ref, res)
				}
			})
		}
	}
}
