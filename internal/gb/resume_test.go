package gb

import (
	"math"
	"strings"
	"sync"
	"testing"

	"gbpolar/internal/fault"
	"gbpolar/internal/obs"
)

// memSink collects encoded checkpoints in memory, in save order.
type memSink struct {
	mu    sync.Mutex
	saves []struct {
		phase CheckpointPhase
		data  []byte
	}
}

func (k *memSink) Save(phase CheckpointPhase, encoded []byte) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.saves = append(k.saves, struct {
		phase CheckpointPhase
		data  []byte
	}{phase, append([]byte(nil), encoded...)})
	return nil
}

// latest decodes the highest-phase checkpoint saved.
func (k *memSink) latest(t *testing.T) *Checkpoint {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	var best *Checkpoint
	for _, s := range k.saves {
		ck, err := DecodeCheckpoint(s.data)
		if err != nil {
			t.Fatalf("decoding saved %s checkpoint: %v", s.phase, err)
		}
		if best == nil || ck.Phase > best.Phase {
			best = ck
		}
	}
	if best == nil {
		t.Fatal("no checkpoint was saved")
	}
	return best
}

func (k *memSink) phases() []CheckpointPhase {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]CheckpointPhase, 0, len(k.saves))
	for _, s := range k.saves {
		out = append(out, s.phase)
	}
	return out
}

// crashAllAt builds a plan crashing every rank of a P-rank world at op.
func crashAllAt(P int, op int64) *fault.Plan {
	pl := &fault.Plan{}
	for r := 0; r < P; r++ {
		pl.Events = append(pl.Events, fault.Event{Kind: fault.Crash, Rank: r, AtOp: op})
	}
	return pl
}

// runResumeIdentity is the tentpole acceptance scenario at one kill
// point: run A uninterrupted (forced ft protocol so its op and counter
// structure matches a resumed run's), run B1 killed on every rank at
// killOp, run B2 resumed from B1's last checkpoint on a fresh recorder.
// B2's Epol and Born must be bitwise A's, and B2's counter-side Summary
// byte-identical to A's.
func runResumeIdentity(t *testing.T, killOp int64, wantPhase CheckpointPhase) {
	t.Helper()
	const P = 4
	s := buildSys(t, 300, DefaultParams())

	recA := obs.NewRecorder(nil)
	sinkA := &memSink{}
	resA, err := s.Run(RunSpec{
		Processes:  P,
		Faults:     &FaultConfig{ForceProtocol: true},
		Obs:        recA,
		Checkpoint: sinkA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sinkA.phases(); len(got) != 4 {
		t.Fatalf("uninterrupted run saved phases %v, want all four", got)
	}

	recB1 := obs.NewRecorder(nil)
	sinkB1 := &memSink{}
	_, err = s.Run(RunSpec{
		Processes:  P,
		Faults:     &FaultConfig{Plan: crashAllAt(P, killOp)},
		Obs:        recB1,
		Checkpoint: sinkB1,
	})
	if err == nil {
		t.Fatal("killing every rank should fail the run")
	}
	if !strings.Contains(err.Error(), "no rank survived") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
	ck := sinkB1.latest(t)
	if ck.Phase != wantPhase {
		t.Fatalf("last checkpoint at phase %s, want %s", ck.Phase, wantPhase)
	}
	if len(ck.Live) != P || len(ck.Lost) != 0 {
		t.Fatalf("checkpoint membership Live=%v Lost=%v, want all %d live", ck.Live, ck.Lost, P)
	}

	recB2 := obs.NewRecorder(nil)
	resB2, err := s.Run(RunSpec{
		Processes: P,
		Faults:    &FaultConfig{ForceProtocol: true},
		Obs:       recB2,
		Resume:    ck,
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	if resB2.Epol != resA.Epol {
		t.Errorf("resumed Epol %v != uninterrupted %v", resB2.Epol, resA.Epol)
	}
	for i := range resA.Born {
		if resB2.Born[i] != resA.Born[i] {
			t.Fatalf("resumed Born[%d] differs: %v vs %v", i, resB2.Born[i], resA.Born[i])
		}
	}
	if resB2.Degraded || resB2.Recovered {
		t.Errorf("clean resume set fault flags: %+v", resB2)
	}
	if got, want := recB2.Summary(), recA.Summary(); got != want {
		t.Errorf("resumed Summary differs from uninterrupted:\n--- resumed\n%s--- uninterrupted\n%s", got, want)
	}
}

func TestResumeAfterEnergyPhaseKill(t *testing.T) {
	// Every rank dies at op 7 (the energy-phase tick): the aggregates
	// checkpoint is the last one on disk.
	runResumeIdentity(t, 7, PhaseAggregates)
}

func TestResumeAfterRadiiPhaseKill(t *testing.T) {
	// Every rank dies at op 4 (the radii-phase tick): only the integral
	// checkpoint exists, and the resumed run redoes radii + energy.
	runResumeIdentity(t, 4, PhaseIntegrals)
}

func TestCheckpointSinkIsNeutral(t *testing.T) {
	// A sink must not perturb the run: same Epol, Born, and Summary with
	// and without one, both on the seed protocol and the forced ft
	// protocol.
	s := buildSys(t, 300, DefaultParams())
	for _, ft := range []bool{false, true} {
		var cfg, cfg2 *FaultConfig
		if ft {
			cfg = &FaultConfig{ForceProtocol: true}
			cfg2 = &FaultConfig{ForceProtocol: true}
		}
		recPlain := obs.NewRecorder(nil)
		plain, err := s.Run(RunSpec{Processes: 3, Faults: cfg, Obs: recPlain})
		if err != nil {
			t.Fatal(err)
		}
		recSink := obs.NewRecorder(nil)
		sink := &memSink{}
		withSink, err := s.Run(RunSpec{Processes: 3, Faults: cfg2, Obs: recSink, Checkpoint: sink})
		if err != nil {
			t.Fatal(err)
		}
		if withSink.Epol != plain.Epol {
			t.Errorf("ft=%v: sink changed Epol: %v vs %v", ft, withSink.Epol, plain.Epol)
		}
		for i := range plain.Born {
			if withSink.Born[i] != plain.Born[i] {
				t.Fatalf("ft=%v: sink changed Born[%d]", ft, i)
			}
		}
		if got, want := recSink.Summary(), recPlain.Summary(); got != want {
			t.Errorf("ft=%v: sink changed the Summary:\n--- with sink\n%s--- without\n%s", ft, got, want)
		}
		if got := sink.phases(); len(got) != 4 {
			t.Errorf("ft=%v: saved phases %v, want all four", ft, got)
		}
	}
}

func TestResumeFromFinishedRun(t *testing.T) {
	// A PhaseEpol checkpoint reconstructs the Result directly.
	s := buildSys(t, 300, DefaultParams())
	sink := &memSink{}
	resA, err := s.Run(RunSpec{Processes: 3, Checkpoint: sink})
	if err != nil {
		t.Fatal(err)
	}
	ck := sink.latest(t)
	if ck.Phase != PhaseEpol {
		t.Fatalf("latest phase %s, want epol", ck.Phase)
	}
	resB, err := s.Run(RunSpec{Processes: 3, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Epol != resA.Epol {
		t.Errorf("Epol %v != %v", resB.Epol, resA.Epol)
	}
	for i := range resA.Born {
		if resB.Born[i] != resA.Born[i] {
			t.Fatalf("Born[%d] differs", i)
		}
	}
}

func TestCheckpointCodecRejectsDamage(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	sink := &memSink{}
	if _, err := s.Run(RunSpec{Processes: 2, Checkpoint: sink}); err != nil {
		t.Fatal(err)
	}
	enc := sink.saves[0].data

	if _, err := DecodeCheckpoint(enc); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	// Re-encoding the decoded snapshot must reproduce the bytes — the
	// deterministic-serialization property the gblint corpus pins.
	ck, _ := DecodeCheckpoint(enc)
	if got := ck.Encode(); string(got) != string(enc) {
		t.Error("re-encoded checkpoint differs from original bytes")
	}

	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := DecodeCheckpoint(flipped); err == nil {
		t.Error("bit-flipped checkpoint decoded without error")
	}
	if _, err := DecodeCheckpoint(enc[:len(enc)-3]); err == nil {
		t.Error("truncated checkpoint decoded without error")
	}
	if _, err := DecodeCheckpoint([]byte("not a checkpoint at all")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	// A snapshot from a different workload must be refused by the config
	// tag, but an ε-relaxed copy of the same system must accept it.
	s1 := buildSys(t, 300, DefaultParams())
	s2 := buildSys(t, 400, DefaultParams())
	sink := &memSink{}
	if _, err := s1.Run(RunSpec{Processes: 2, Checkpoint: sink}); err != nil {
		t.Fatal(err)
	}
	ck := sink.latest(t)
	if _, err := s2.Run(RunSpec{Processes: 2, Resume: ck}); err == nil {
		t.Error("foreign checkpoint accepted")
	}
	if _, err := s1.WithRelaxedEps(1.5).Run(RunSpec{Processes: 2, Resume: ck}); err != nil {
		t.Errorf("ε-relaxed resume of own checkpoint refused: %v", err)
	}
	if _, err := s1.Run(RunSpec{Resume: ck}); err == nil {
		t.Error("non-distributed resume accepted")
	}
}

func TestResumeRejectsLooserCheckpoint(t *testing.T) {
	// ε acceptance is one-directional. A snapshot saved under relaxed ε
	// (a shed or relax-rung run) must NOT resume a full-accuracy system:
	// its phase data carries the relaxed error, but the resumed run would
	// report itself non-degraded — exactly the laundering the soak
	// harness caught. The same snapshot stays valid for an equally
	// relaxed system, and a v1 snapshot (ε unrecorded) is grandfathered.
	s := buildSys(t, 300, DefaultParams())
	relaxed := s.WithRelaxedEps(1.5)
	sink := &memSink{}
	if _, err := relaxed.Run(RunSpec{Processes: 2, Checkpoint: sink}); err != nil {
		t.Fatal(err)
	}
	ck := sink.latest(t)
	if ck.EpsEpol != relaxed.Params.EpsEpol || ck.EpsBorn != relaxed.Params.EpsBorn {
		t.Fatalf("snapshot records ε (born %g, epol %g), want the relaxed system's (born %g, epol %g)",
			ck.EpsBorn, ck.EpsEpol, relaxed.Params.EpsBorn, relaxed.Params.EpsEpol)
	}

	_, err := s.Run(RunSpec{Processes: 2, Resume: ck})
	if err == nil {
		t.Fatal("full-accuracy run resumed a relaxed snapshot")
	}
	if !strings.Contains(err.Error(), "looser") {
		t.Errorf("rejection should name the looser ε, got: %v", err)
	}
	if err := s.CanResume(ck); err == nil {
		t.Error("CanResume accepted the relaxed snapshot for the tight system")
	}

	if _, err := relaxed.Run(RunSpec{Processes: 2, Resume: ck}); err != nil {
		t.Errorf("equally relaxed resume refused: %v", err)
	}

	// A v1-era snapshot decodes with zero ε: the direction check is
	// skipped rather than refusing every legacy store.
	legacy := *ck
	legacy.EpsBorn, legacy.EpsEpol = 0, 0
	if err := s.CanResume(&legacy); err != nil {
		t.Errorf("ε-unrecorded snapshot refused: %v", err)
	}
}

// A CRC-valid snapshot whose values are unusable must be refused by
// CanResume (the supervisor then drops it and recomputes) and by Run,
// never resumed into a NaN energy or a failed aggregate build.
func TestResumeRejectsBadValues(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	sink := &memSink{}
	if _, err := s.Run(RunSpec{Processes: 2, Checkpoint: sink}); err != nil {
		t.Fatal(err)
	}
	saved := map[CheckpointPhase][]byte{}
	for _, sv := range sink.saves {
		saved[sv.phase] = sv.data
	}
	n := s.NumAtoms()
	type damage struct {
		phase CheckpointPhase
		slot  int // payload index
		what  string
	}
	var cases []damage
	for _, ph := range []CheckpointPhase{PhaseRadii, PhaseAggregates, PhaseEpol} {
		cases = append(cases, damage{ph, n / 2, "radius"})
	}
	cases = append(cases, damage{PhaseEpol, n, "energy"}, damage{PhaseEpol, n + 2, "bound"})
	for _, c := range cases {
		bad := []float64{math.NaN(), math.Inf(1), 0, -1}
		if c.what != "radius" {
			bad = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		}
		for _, v := range bad {
			ck, err := DecodeCheckpoint(saved[c.phase])
			if err != nil {
				t.Fatalf("%s: %v", c.phase, err)
			}
			if err := s.CanResume(ck); err != nil {
				t.Fatalf("%s: intact snapshot refused: %v", c.phase, err)
			}
			ck.Payload[c.slot] = v
			ck, err = DecodeCheckpoint(ck.Encode())
			if err != nil {
				t.Fatalf("%s: re-encoded snapshot does not decode: %v", c.phase, err)
			}
			if err := s.CanResume(ck); err == nil {
				t.Errorf("%s with %s %v: CanResume accepted it", c.phase, c.what, v)
			}
			if res, err := s.Run(RunSpec{Processes: 2, Resume: ck}); err == nil {
				t.Errorf("%s with %s %v: resumed to Epol %v", c.phase, c.what, v, res.Epol)
			}
		}
	}
}
