package gb

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/surface"
)

// Op-count map of runDistributed (P ranks, no faults firing): integral
// phase: op0 Tick, op1 Allreduce; radii phase: op2 Tick, op3 Allgatherv;
// energy phase: op4 Tick, op5 Allreduce. A redo iteration or a
// retransmit shifts every later op. The tests below target crashes by
// these indices.

func TestFaultsEmptyPlanBitwiseIdentical(t *testing.T) {
	s := buildSys(t, 300, DefaultParams())
	base, err := s.Run(RunSpec{Processes: 3})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := s.Run(RunSpec{Processes: 3, Faults: &FaultConfig{Plan: &fault.Plan{}}})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Epol != base.Epol {
		t.Errorf("empty plan changed Epol: %v vs %v", ft.Epol, base.Epol)
	}
	for i := range base.Born {
		if ft.Born[i] != base.Born[i] {
			t.Fatalf("empty plan changed Born[%d]", i)
		}
	}
	if ft.Degraded || ft.Recovered || len(ft.LostRanks) != 0 {
		t.Errorf("empty plan set fault flags: %+v", ft)
	}

	hybBase, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 2})
	if err != nil {
		t.Fatal(err)
	}
	hybFT, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: 2, Faults: nil})
	if err != nil {
		t.Fatal(err)
	}
	if hybFT.Epol != hybBase.Epol {
		t.Errorf("nil config changed hybrid Epol: %v vs %v", hybFT.Epol, hybBase.Epol)
	}
}

func TestCrashRecoverMatchesSerial(t *testing.T) {
	// Rank 1 dies entering the radii phase (op 2). The survivors must
	// detect the loss, re-partition, redo the phase, and still produce the
	// full-accuracy answer — node division is P-invariant, so the healed
	// energy matches serial to reassociation noise.
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 2}}}
	r, err := s.Run(RunSpec{Processes: 4, Faults: &FaultConfig{Plan: plan, Policy: Recover}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LostRanks) != 1 || r.LostRanks[0] != 1 {
		t.Errorf("LostRanks = %v, want [1]", r.LostRanks)
	}
	if !r.Recovered || r.Degraded {
		t.Errorf("flags: Recovered=%v Degraded=%v, want recovered and not degraded", r.Recovered, r.Degraded)
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
		t.Errorf("healed Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
	for i := range r.Born {
		if relDiff(r.Born[i], serial.Born[i]) > 1e-10 {
			t.Fatalf("healed Born[%d] differs: %v vs %v", i, r.Born[i], serial.Born[i])
		}
	}
}

func TestCrashDegradeHonestBound(t *testing.T) {
	// A rank dies entering the energy phase (op 4): its share's V-side
	// terms are missing from the accepted partial sum, and so are the
	// mirror terms of the mutually near blocks its targets own across the
	// share boundary, which the live neighbours skipped (ownership is
	// global, DESIGN.md §13). Under Degrade the result must carry an
	// ErrorBound that really contains the deficit, for every layout, every
	// dead rank and both work divisions. The node division's radii are
	// P-invariant, so its reference is the serial run; the atom
	// division's move with P, so its reference is a clean run at the same
	// P.
	atomParams := DefaultParams()
	atomParams.Division = AtomNode
	for _, s := range []*System{buildSys(t, 400, DefaultParams()), buildSys(t, 400, atomParams)} {
		serial := mustRun(t, s, RunSpec{})
		for _, P := range []int{2, 3, 4} {
			ref := serial
			if s.Params.Division == AtomNode {
				ref = mustRun(t, s, RunSpec{Processes: P})
			}
			for rank := range P {
				name := fmt.Sprintf("P%d/crash%d", P, rank)
				if s.Params.Division == AtomNode {
					name = "atom-node/" + name
				}
				t.Run(name, func(t *testing.T) {
					plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: rank, AtOp: 4}}}
					r, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: plan, Policy: Degrade}})
					if err != nil {
						t.Fatal(err)
					}
					if !r.Degraded {
						t.Fatal("result not marked Degraded")
					}
					if r.ErrorBound <= 0 {
						t.Fatalf("ErrorBound = %v, want positive", r.ErrorBound)
					}
					miss := math.Abs(r.Epol - ref.Epol)
					if miss > r.ErrorBound {
						t.Errorf("|Epol−ref| = %v exceeds ErrorBound %v", miss, r.ErrorBound)
					}
					if miss == 0 {
						t.Error("degraded energy equals the clean run's — the crash injected nothing")
					}
					if len(r.LostRanks) != 1 || r.LostRanks[0] != rank {
						t.Errorf("LostRanks = %v, want [%d]", r.LostRanks, rank)
					}
				})
			}
		}
	}
}

// TestDegradedEnergyCheckpointRecordsLostRanks pins the energy snapshot
// of a degraded run: when a rank dies at the energy phase's Allreduce
// (op 5) and Degrade accepts the partial energy, the PhaseEpol snapshot
// is still saved, by the lowest surviving rank, and records the
// membership the result reports — Lost equal to LostRanks, Live the
// complement — with the accepted energy, flag and bound as its tail.
func TestDegradedEnergyCheckpointRecordsLostRanks(t *testing.T) {
	const P = 3
	s := newTestSystem(t, molecule.ZDockMolecule(molecule.ZDockRoster()[0]), surface.DefaultConfig(), DefaultParams())
	for rank := range P {
		t.Run(fmt.Sprintf("crash:%d@5", rank), func(t *testing.T) {
			plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: rank, AtOp: 5}}}
			sink := &memSink{}
			r, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: plan, Policy: Degrade}, Checkpoint: sink})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Degraded || !reflect.DeepEqual(r.LostRanks, []int{rank}) {
				t.Fatalf("Degraded=%v LostRanks=%v, want a degraded run that lost rank %d", r.Degraded, r.LostRanks, rank)
			}
			var epol *Checkpoint
			for _, sv := range sink.saves {
				ck, err := DecodeCheckpoint(sv.data)
				if err != nil {
					t.Fatalf("decoding saved %s checkpoint: %v", sv.phase, err)
				}
				if ck.Phase == PhaseEpol {
					epol = ck
				}
			}
			if epol == nil {
				t.Fatalf("no %s checkpoint saved (saved %v)", PhaseEpol, sink.phases())
			}
			if !reflect.DeepEqual(epol.Lost, r.LostRanks) || !reflect.DeepEqual(epol.Live, liveRanksOf(P, r.LostRanks)) {
				t.Errorf("%s checkpoint records Live %v Lost %v, result lost %v", PhaseEpol, epol.Live, epol.Lost, r.LostRanks)
			}
			tail := epol.Payload[len(epol.Payload)-3:]
			if tail[0] != r.Epol || tail[1] != 1 || tail[2] != r.ErrorBound {
				t.Errorf("%s checkpoint tail %v, want [%v 1 %v]", PhaseEpol, tail, r.Epol, r.ErrorBound)
			}
		})
	}
}

// TestDegradedBoundWeightsPartners pins degradedBound against a
// brute-force evaluation over ordered atom pairs at intrinsic radii: a
// partner outside the dead atoms counts twice, because a dead target may
// own the pair's mutually near block ×2 and its live mirror skipped it; a
// partner inside counts once, because its mirror term is anchored at a
// dead atom of its own.
func TestDegradedBoundWeightsPartners(t *testing.T) {
	s := buildSys(t, 80, DefaultParams())
	atoms := s.Mol.Atoms
	scale := boundSlack * 0.5 * Tau(s.Params.EpsSolvent) * CoulombKcal
	term := func(i, j int32) float64 {
		a := atoms[i].Radius * atoms[j].Radius
		r2 := s.atomPos[i].Dist2(s.atomPos[j])
		return math.Abs(atoms[i].Charge*atoms[j].Charge) / math.Sqrt(r2+a*math.Exp(-r2/(4*a)))
	}
	brute := func(dead []int32) float64 {
		in := make(map[int32]bool, len(dead))
		for _, v := range dead {
			in[v] = true
		}
		sum := 0.0
		for _, v := range dead {
			sum += atoms[v].Charge * atoms[v].Charge / atoms[v].Radius
			for j := range atoms {
				switch {
				case int32(j) == v:
				case in[int32(j)]:
					sum += term(v, int32(j))
				default:
					sum += 2 * term(v, int32(j))
				}
			}
		}
		return scale * sum
	}
	var every3rd []int32
	for v := int32(0); v < int32(len(atoms)); v += 3 {
		every3rd = append(every3rd, v)
	}
	for _, dead := range [][]int32{{5}, {5, 6}, every3rd, s.shareAtomsNodeNode(0, len(s.aLeaves)/2)} {
		if got, want := s.degradedBound(dead), brute(dead); relDiff(got, want) > 1e-12 {
			t.Errorf("%d dead atoms: degradedBound %v, brute force %v", len(dead), got, want)
		}
	}
	// The weights alone: the pair (5, 6) counts twice at each anchor when
	// one atom dies and once when both do.
	pair := s.degradedBound([]int32{5}) + s.degradedBound([]int32{6}) - s.degradedBound([]int32{5, 6})
	if want := scale * 2 * term(5, 6); relDiff(pair, want) > 1e-9 {
		t.Errorf("pair (5, 6) weight: bound difference %v, want 2 terms %v", pair, want)
	}
}

func TestStragglerShedsWork(t *testing.T) {
	// A straggling rank (known from the plan) carries
	// half a share; its siblings absorb the rest. Node division keeps leaf
	// boundaries whole, so the answer is unchanged.
	s := buildSys(t, 600, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 1, AtOp: 0, Count: 10, Dur: 200 * time.Microsecond},
	}}
	r, err := s.Run(RunSpec{Processes: 4, Faults: &FaultConfig{Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
		t.Errorf("Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
	if !r.Recovered {
		t.Error("straggler shedding not reported as Recovered")
	}
	if r.Traffic.StragglerNanos == 0 {
		t.Error("no straggler time recorded in traffic stats")
	}
	if r.PerCoreOps[1] >= r.PerCoreOps[0] {
		t.Errorf("straggler rank 1 did %d ops, healthy rank 0 did %d — no shedding",
			r.PerCoreOps[1], r.PerCoreOps[0])
	}
}

func TestHybridCrashRecover(t *testing.T) {
	// The fault protocol must compose with per-rank work-stealing pools
	// (crash unwinding releases the pool via defer, survivors heal).
	s := buildSys(t, 400, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: 1, AtOp: 2}}}
	r, err := s.Run(RunSpec{Processes: 3, ThreadsPerProcess: 2, Faults: &FaultConfig{Plan: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
		t.Errorf("Epol %v vs serial %v (rel %v)", r.Epol, serial.Epol, rel)
	}
	if !r.Recovered || len(r.LostRanks) != 1 {
		t.Errorf("Recovered=%v LostRanks=%v", r.Recovered, r.LostRanks)
	}
}

func TestChaosRecoverNeverDeadlocksOrLies(t *testing.T) {
	// The acceptance sweep: seeded chaos schedules (crashes and
	// stragglers) against the Recover policy. Every run must terminate,
	// and a completed non-degraded recovery is a full-accuracy answer.
	s := buildSys(t, 300, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	for seed := int64(1); seed <= 6; seed++ {
		plan := fault.Chaos(seed, 5, 8)
		r, err := s.Run(RunSpec{Processes: 5, Faults: &FaultConfig{Plan: plan, Policy: Recover}})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if r.Degraded {
			t.Errorf("seed %d: Recover policy produced a degraded result", seed)
		}
		if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
			t.Errorf("seed %d: Epol %v vs serial %v (rel %v, lost %v)",
				seed, r.Epol, serial.Epol, rel, r.LostRanks)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	s := buildSys(t, 200, DefaultParams())
	for _, P := range []int{-3, 201} {
		if _, err := s.Run(RunSpec{Processes: P}); err == nil {
			t.Errorf("Processes=%d accepted", P)
		}
	}
	if _, err := s.Run(RunSpec{Processes: 2, ThreadsPerProcess: -1}); err == nil {
		t.Error("ThreadsPerProcess=-1 accepted")
	}
	if _, err := s.RunMPIDistributedData(0); err == nil {
		t.Error("RunMPIDistributedData(0) accepted")
	}
	if _, err := s.RunMPIDistributedData(500); err == nil {
		t.Error("RunMPIDistributedData(500) accepted (more ranks than atoms)")
	}
	if _, err := s.RunMPIDynamic(1); err == nil {
		t.Error("RunMPIDynamic(1) accepted")
	}
}

func TestChaosCorruptionNeverSilent(t *testing.T) {
	// The corruption acceptance matrix: seeded chaos schedules mixing
	// crashes, stragglers and payload corruption, across two world
	// widths. Every run must terminate. A run that completes cleanly (no
	// error, not degraded) must be full accuracy: an injected corruption is
	// always detected and either healed by retransmit or escalated as a
	// typed error — never absorbed into the answer.
	s := buildSys(t, 300, DefaultParams())
	serial := mustRun(t, s, RunSpec{})
	var injected, detected int64
	for _, P := range []int{3, 5} {
		for seed := int64(1); seed <= 6; seed++ {
			plan := fault.ChaosWithCorruption(seed, P, 10)
			rec := obs.NewRecorder(nil)
			r, err := s.Run(RunSpec{Processes: P, Faults: &FaultConfig{Plan: plan, Policy: Recover}, Obs: rec})
			c := rec.Counters()
			injected += c["fault.corruptions"]
			detected += c["fault.corruptions.detected"]
			if err != nil {
				// An escalated failure is acceptable: the run refused to
				// answer rather than answering wrong.
				continue
			}
			if r.Degraded {
				t.Errorf("P=%d seed %d: Recover policy produced a degraded result", P, seed)
				continue
			}
			if rel := relDiff(r.Epol, serial.Epol); rel > 1e-10 {
				t.Errorf("P=%d seed %d: silently wrong Epol %v vs serial %v (rel %v, lost %v)",
					P, seed, r.Epol, serial.Epol, rel, r.LostRanks)
			}
		}
	}
	if injected == 0 {
		t.Error("matrix injected no corruption — the chaos schedules are too small to exercise the checksums")
	}
	if detected == 0 {
		t.Error("corruption was injected but never detected")
	}
}

// replayFingerprint lists every field of a run's outcome a replayed plan
// must reproduce, one field per entry: the Epol and radius bits, per-core
// ops, the fault flags and bound, and the traffic log — or the error.
func replayFingerprint(r *Result, err error) []string {
	if err != nil {
		return []string{"error " + err.Error()}
	}
	born := make([]uint64, len(r.Born))
	for i, v := range r.Born {
		born[i] = math.Float64bits(v)
	}
	return []string{
		fmt.Sprintf("Epol %x", math.Float64bits(r.Epol)),
		fmt.Sprintf("Born %x", born),
		fmt.Sprintf("PerCoreOps %v", r.PerCoreOps),
		fmt.Sprintf("Degraded %v", r.Degraded),
		fmt.Sprintf("ErrorBound %x", math.Float64bits(r.ErrorBound)),
		fmt.Sprintf("LostRanks %v", r.LostRanks),
		fmt.Sprintf("Recovered %v", r.Recovered),
		fmt.Sprintf("Traffic %+v", r.Traffic),
	}
}

// TestChaosReplaysIdentically pins the promise of internal/fault: a plan
// replays identically on every run. Seeded plans from both generators
// under both policies at 3×1, 5×1 and 2×2, and a crash of every rank at
// every op in [0, 12) on 1PPE_l_b at 3×1, each run ten times, must agree
// in every field replayFingerprint lists. Membership is read off the
// plan's op clock, so no goroutine schedule can change an outcome.
func TestChaosReplaysIdentically(t *testing.T) {
	const repeats = 10
	replay := func(t *testing.T, label string, s *System, spec RunSpec) {
		t.Helper()
		first := replayFingerprint(s.Run(spec))
		for i := 1; i < repeats; i++ {
			again := replayFingerprint(s.Run(spec))
			for f := range max(len(first), len(again)) {
				if f >= len(first) || f >= len(again) || first[f] != again[f] {
					t.Errorf("%s: run %d differs from run 0 in %.60s", label, i, again[min(f, len(again)-1)])
					return
				}
			}
		}
	}
	globule := buildSys(t, 300, DefaultParams())
	gens := []struct {
		name string
		plan func(seed int64, P int) *fault.Plan
	}{
		{"chaos", func(seed int64, P int) *fault.Plan { return fault.Chaos(seed, P, 8) }},
		{"corrupt", func(seed int64, P int) *fault.Plan { return fault.ChaosWithCorruption(seed, P, 10) }},
	}
	for _, g := range gens {
		for _, pol := range []FaultPolicy{Recover, Degrade} {
			for _, lay := range [][2]int{{3, 1}, {5, 1}, {2, 2}} {
				for seed := int64(1); seed <= 3; seed++ {
					plan := g.plan(seed, lay[0])
					label := fmt.Sprintf("%s %s %d×%d %s", g.name, pol, lay[0], lay[1], plan)
					replay(t, label, globule, RunSpec{Processes: lay[0], ThreadsPerProcess: lay[1],
						Faults: &FaultConfig{Plan: plan, Policy: pol}})
				}
			}
		}
	}
	const P = 3
	s := newTestSystem(t, molecule.ZDockMolecule(molecule.ZDockRoster()[0]), surface.DefaultConfig(), DefaultParams())
	for rank := range P {
		for op := int64(0); op < 12; op++ {
			plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: rank, AtOp: op}}}
			for _, pol := range []FaultPolicy{Recover, Degrade} {
				replay(t, fmt.Sprintf("%s %s", plan, pol), s, RunSpec{Processes: P, Faults: &FaultConfig{Plan: plan, Policy: pol}})
			}
		}
	}
}

// TestDegradedOnlyWhenEnergyShareMissing pins what Degraded means: under
// the Degrade policy a result is Degraded exactly when a lost rank's
// energy share is missing from it. For a crash of every rank at every op
// in [0, 12) on 1PPE_l_b at 3×1, five runs each, a Degraded result must
// differ from the clean run (by more than 1e-10 relative) and by no more
// than its ErrorBound; any other result must be the clean energy to
// 1e-10 relative (a healed phase reassociates its sums), and a run that
// lost no rank must be the clean run's bits. None of these checks depend
// on how the driver numbers its ops.
func TestDegradedOnlyWhenEnergyShareMissing(t *testing.T) {
	const P = 3
	s := newTestSystem(t, molecule.ZDockMolecule(molecule.ZDockRoster()[0]), surface.DefaultConfig(), DefaultParams())
	clean := mustRun(t, s, RunSpec{Processes: P})
	for rank := range P {
		for op := int64(0); op < 12; op++ {
			plan := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Rank: rank, AtOp: op}}}
			for i := 0; i < 5; i++ {
				r := mustRun(t, s, RunSpec{Processes: P, Faults: &FaultConfig{Plan: plan, Policy: Degrade}})
				rel := relDiff(r.Epol, clean.Epol)
				switch {
				case r.Degraded && rel <= 1e-10:
					t.Errorf("%s run %d: Degraded (bound %v) with the clean energy (rel %v)", plan, i, r.ErrorBound, rel)
				case r.Degraded && math.Abs(r.Epol-clean.Epol) > r.ErrorBound:
					t.Errorf("%s run %d: |Epol−clean| = %v exceeds ErrorBound %v", plan, i, math.Abs(r.Epol-clean.Epol), r.ErrorBound)
				case !r.Degraded && rel > 1e-10:
					t.Errorf("%s run %d: not Degraded but Epol %v vs clean %v (rel %v, lost %v)", plan, i, r.Epol, clean.Epol, rel, r.LostRanks)
				}
				if len(r.LostRanks) == 0 && math.Float64bits(r.Epol) != math.Float64bits(clean.Epol) {
					t.Errorf("%s run %d: no rank lost but Epol %v, clean %v", plan, i, r.Epol, clean.Epol)
				}
			}
		}
	}
}
