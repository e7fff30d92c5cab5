package gb

import (
	"math"
	"testing"

	"gbpolar/internal/molecule"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
)

func TestDistributedDataMatchesEpsilonBand(t *testing.T) {
	s := buildSys(t, 700, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	naiveR, _ := s.NaiveBornRadiiR6()
	naiveE, _ := s.NaiveEpol(naiveR)
	for _, P := range []int{1, 2, 4, 6} {
		r, err := s.RunMPIDistributedData(P)
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		// The multi-tree decomposition differs from the shared-tree one,
		// so exact agreement with the serial driver is not expected — but
		// both must sit in the same ε band around the exact energy.
		relNaive := math.Abs(r.Epol-naiveE) / math.Abs(naiveE)
		if relNaive > 0.02 {
			t.Errorf("P=%d: distributed-data energy off naive by %.3f%%", P, relNaive*100)
		}
		relSerial := math.Abs(r.Epol-serial.Epol) / math.Abs(serial.Epol)
		if relSerial > 0.02 {
			t.Errorf("P=%d: %.3f%% from the shared-data result", P, relSerial*100)
		}
		// Born radii land within the Born ε band of the exact radii.
		worst := 0.0
		for i := range naiveR {
			if rel := math.Abs(r.Born[i]-naiveR[i]) / naiveR[i]; rel > worst {
				worst = rel
			}
		}
		if worst > 0.08 {
			t.Errorf("P=%d: worst Born radius error %.3f", P, worst)
		}
		if len(r.PerCoreOps) != P {
			t.Errorf("P=%d: %d counters", P, len(r.PerCoreOps))
		}
	}
}

func TestDistributedDataShipsBundles(t *testing.T) {
	s := buildSys(t, 500, DefaultParams())
	r, err := s.RunMPIDistributedData(4)
	if err != nil {
		t.Fatal(err)
	}
	// Ring exchange: two phases × P(P−1) sends.
	wantMsgs := int64(2 * 4 * 3)
	if r.Traffic.P2PMessages != wantMsgs {
		t.Errorf("p2p messages = %d, want %d", r.Traffic.P2PMessages, wantMsgs)
	}
	if r.Traffic.P2PBytes == 0 {
		t.Error("no bundle bytes shipped")
	}
	// Bundle traffic carries roughly the whole dataset (P−1)× per phase.
	atoms := int64(s.NumAtoms())
	qpts := int64(s.NumQPoints())
	approxBytes := 3 * ((qpts*7+1)*8 + (atoms*5+1)*8) // (P−1) copies of each
	if r.Traffic.P2PBytes < approxBytes/2 || r.Traffic.P2PBytes > approxBytes*2 {
		t.Errorf("bundle bytes = %d, expected ≈%d", r.Traffic.P2PBytes, approxBytes)
	}
}

// TestDistributedDataSingleRank: at one rank the data segments are the
// whole molecule, so the distributed-data driver reproduces the serial
// driver up to the summation order inside leaves (its trees are rebuilt
// over item-order-permuted points): Epol and every radius within 1e-12
// relative, with equal ops.
func TestDistributedDataSingleRank(t *testing.T) {
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > 1200 {
			break
		}
		t.Run(e.Name, func(t *testing.T) {
			s := newTestSystem(t, molecule.ZDockMolecule(e), surface.DefaultConfig(), DefaultParams())
			r, err := s.RunMPIDistributedData(1)
			if err != nil {
				t.Fatal(err)
			}
			if r.Traffic.P2PMessages != 0 {
				t.Errorf("single rank sent %d messages", r.Traffic.P2PMessages)
			}
			serial := mustRun(t, s, RunSpec{})
			if rel := relDiff(r.Epol, serial.Epol); rel > 1e-12 {
				t.Errorf("P=1 energy %v differs from serial %v by %.3g", r.Epol, serial.Epol, rel)
			}
			for i := range serial.Born {
				if rel := relDiff(r.Born[i], serial.Born[i]); rel > 1e-12 {
					t.Fatalf("P=1 Born radius %d: %v, serial %v (rel %.3g)", i, r.Born[i], serial.Born[i], rel)
				}
			}
			if got, want := r.TotalOps(), serial.TotalOps(); got != want {
				t.Errorf("P=1 ops %d, serial %d", got, want)
			}
		})
	}
}

func TestDistributedDataValidation(t *testing.T) {
	s := buildSys(t, 100, DefaultParams())
	if _, err := s.RunMPIDistributedData(0); err == nil {
		t.Error("P=0 accepted")
	}
	_ = simmpi.Stats{}
}
