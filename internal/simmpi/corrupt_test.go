package simmpi

import (
	"errors"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/obs"
)

// TestCollectiveCorruptionRetransmits: one corrupted contribution to an
// Allreduce must be detected by every rank, retransmitted, and the final
// value must be exactly the clean sum — detection plus bounded recovery,
// never silent damage.
func TestCollectiveCorruptionRetransmits(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Corrupt, Rank: 1, AtOp: 0, Count: 1},
	}}
	rec := obs.NewRecorder(nil)
	stats, err := RunPlanObs(3, plan, rec, func(c *Comm) error {
		got, err := c.Allreduce([]float64{float64(c.Rank() + 1)}, Sum)
		if err != nil {
			return err
		}
		if got[0] != 6 {
			t.Errorf("rank %d: corrupted allreduce = %v, want 6", c.Rank(), got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corruptions < 1 {
		t.Errorf("Corruptions = %d, want at least 1", stats.Corruptions)
	}
	if stats.Retransmits < 1 {
		t.Errorf("Retransmits = %d, want at least 1", stats.Retransmits)
	}
	counters := rec.Counters()
	if counters["fault.corruptions.detected"] < 1 {
		t.Errorf("no detection counted: %v", counters)
	}
	if counters["comm.retransmits"] < 1 {
		t.Errorf("no retransmit counted: %v", counters)
	}
}

// TestPersistentCorruptionEscalates: when every retransmit round is
// corrupted too, the collective must give up with ErrCorrupt on every
// rank — in lockstep, not by deadlock or by delivering damaged floats.
func TestPersistentCorruptionEscalates(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Corrupt, Rank: 1, AtOp: 0, Count: 64},
	}}
	_, err := RunPlan(3, plan, func(c *Comm) error {
		_, err := c.Allreduce([]float64{1}, Sum)
		if err == nil {
			t.Errorf("rank %d: persistently corrupted allreduce succeeded", c.Rank())
			return nil
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("rank %d: err = %v, want ErrCorrupt", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCleanPlanChecksumNeutral: an injector with no corrupt events pays
// the checksum cost but must behave identically — no corruption, no
// retransmit, values exact.
func TestCleanPlanChecksumNeutral(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 0, AtOp: 50, Count: 1, Dur: time.Millisecond},
	}}
	stats, err := RunPlan(4, plan, func(c *Comm) error {
		got, err := c.Allreduce([]float64{float64(c.Rank())}, Sum)
		if err != nil {
			return err
		}
		if got[0] != 6 {
			t.Errorf("allreduce = %v", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corruptions != 0 || stats.Retransmits != 0 {
		t.Errorf("clean plan counted corruption: %+v", stats)
	}
}
