package perf

import (
	"testing"

	"gbpolar/internal/simmpi"
)

func ops(n int, v int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestPriceValidation(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	if _, err := m.Price(cal, RunShape{Processes: 0, ThreadsPerProcess: 1}, ops(1, 1), simmpi.Stats{}); err == nil {
		t.Error("accepted zero processes")
	}
	if _, err := m.Price(cal, RunShape{Processes: 10000, ThreadsPerProcess: 12}, ops(1, 1), simmpi.Stats{}); err == nil {
		t.Error("accepted more cores than the machine has")
	}
	if _, err := m.Price(cal, RunShape{Processes: 1, ThreadsPerProcess: 1}, nil, simmpi.Stats{}); err == nil {
		t.Error("accepted empty op counts")
	}
}

func TestPriceComputeScalesWithOps(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	shape := RunShape{Processes: 1, ThreadsPerProcess: 1, DataBytes: 1 << 20}
	b1, err := m.Price(cal, shape, ops(1, 1e8), simmpi.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.Price(cal, shape, ops(1, 2e8), simmpi.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if b2.CompSeconds <= b1.CompSeconds*1.9 || b2.CompSeconds >= b1.CompSeconds*2.1 {
		t.Errorf("comp not ~linear in ops: %v vs %v", b1.CompSeconds, b2.CompSeconds)
	}
}

func TestPriceMaxRankDominates(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	shape := RunShape{Processes: 4, ThreadsPerProcess: 1, DataBytes: 1 << 20}
	balanced, _ := m.Price(cal, shape, []int64{100, 100, 100, 100}, simmpi.Stats{})
	imbalanced, _ := m.Price(cal, shape, []int64{10, 10, 10, 370}, simmpi.Stats{})
	if imbalanced.CompSeconds <= balanced.CompSeconds {
		t.Error("load imbalance did not slow the modeled run")
	}
}

func TestCacheFactorShrinksWithCores(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	data := int64(1 << 30) // 1 GB working set
	small, _ := m.Price(cal, RunShape{Processes: 12, ThreadsPerProcess: 1, DataBytes: data}, ops(12, 1e6), simmpi.Stats{})
	large, _ := m.Price(cal, RunShape{Processes: 144, ThreadsPerProcess: 1, DataBytes: data}, ops(144, 1e6), simmpi.Stats{})
	if large.CacheFactor >= small.CacheFactor {
		t.Errorf("cache factor did not shrink with cores: %v vs %v", small.CacheFactor, large.CacheFactor)
	}
}

func TestThrashFactorKicksInBeyondRAM(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	// 12 processes × 4 GB = 48 GB > 24 GB RAM.
	shape := RunShape{Processes: 12, ThreadsPerProcess: 1, DataBytes: 4 << 30}
	b, err := m.Price(cal, shape, ops(12, 1e6), simmpi.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if b.ThrashFactor <= 1 {
		t.Errorf("ThrashFactor = %v", b.ThrashFactor)
	}
	// Hybrid 2×6 holds only 2 copies: 8 GB < RAM → no thrash.
	hshape := RunShape{Processes: 2, ThreadsPerProcess: 6, DataBytes: 4 << 30}
	hb, err := m.Price(cal, hshape, ops(12, 1e6), simmpi.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if hb.ThrashFactor != 1 {
		t.Errorf("hybrid ThrashFactor = %v", hb.ThrashFactor)
	}
}

func TestMemoryReplicationRatio(t *testing.T) {
	// §V-B: 12 single-thread ranks hold ~6× the memory of 2×6 hybrid.
	m := Lonestar4()
	cal := DefaultCalibration()
	data := int64(700 << 20)
	mpi, _ := m.Price(cal, RunShape{Processes: 12, ThreadsPerProcess: 1, DataBytes: data}, ops(12, 1), simmpi.Stats{})
	hyb, _ := m.Price(cal, RunShape{Processes: 2, ThreadsPerProcess: 6, DataBytes: data}, ops(12, 1), simmpi.Stats{})
	ratio := float64(mpi.MemPerNodeBytes) / float64(hyb.MemPerNodeBytes)
	if ratio < 5.5 || ratio > 6.5 {
		t.Errorf("memory ratio = %v, want ≈6 (paper: 5.86)", ratio)
	}
}

func TestCommCostGrowsWithRanks(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	traffic := simmpi.Stats{Collectives: map[simmpi.CollectiveKind]simmpi.CollectiveStat{
		simmpi.KindAllreduce: {Calls: 1, Bytes: 8 << 20},
	}}
	few, _ := m.Price(cal, RunShape{Processes: 24, ThreadsPerProcess: 6, DataBytes: 1 << 20}, ops(144, 1), traffic)
	many, _ := m.Price(cal, RunShape{Processes: 144, ThreadsPerProcess: 1, DataBytes: 1 << 20}, ops(144, 1), traffic)
	if many.CommSeconds <= few.CommSeconds {
		t.Errorf("comm cost did not grow with rank count: %v vs %v", few.CommSeconds, many.CommSeconds)
	}
}

func TestSingleRankNoComm(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	traffic := simmpi.Stats{Collectives: map[simmpi.CollectiveKind]simmpi.CollectiveStat{
		simmpi.KindAllreduce: {Calls: 3, Bytes: 1 << 20},
	}}
	b, err := m.Price(cal, RunShape{Processes: 1, ThreadsPerProcess: 1, DataBytes: 1 << 20}, ops(1, 1e6), traffic)
	if err != nil {
		t.Fatal(err)
	}
	if b.CommSeconds != 0 {
		t.Errorf("single-rank comm = %v", b.CommSeconds)
	}
}

func TestHybridOverheadApplied(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	mpi, _ := m.Price(cal, RunShape{Processes: 12, ThreadsPerProcess: 1, DataBytes: 1 << 10}, ops(12, 1e8), simmpi.Stats{})
	hyb, _ := m.Price(cal, RunShape{Processes: 2, ThreadsPerProcess: 6, DataBytes: 1 << 10}, ops(12, 1e8), simmpi.Stats{})
	if hyb.CompSeconds <= mpi.CompSeconds {
		t.Error("cilk factor not applied to hybrid compute")
	}
	if hyb.OverheadSeconds == 0 {
		t.Error("interface overhead missing for hybrid run")
	}
	if mpi.OverheadSeconds != 0 {
		t.Error("interface overhead applied to pure-MPI run")
	}
}

func TestPriceNoisyEnvelope(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	shape := RunShape{Processes: 12, ThreadsPerProcess: 1, DataBytes: 1 << 20}
	lo, hi, err := m.PriceNoisy(cal, shape, ops(12, 1e8), simmpi.Stats{}, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Errorf("noise envelope degenerate: [%v, %v]", lo, hi)
	}
	base, _ := m.Price(cal, shape, ops(12, 1e8), simmpi.Stats{})
	if lo < base.TotalSeconds {
		t.Errorf("min %v below noiseless %v", lo, base.TotalSeconds)
	}
	// Deterministic in seed.
	lo2, hi2, _ := m.PriceNoisy(cal, shape, ops(12, 1e8), simmpi.Stats{}, 20, 1)
	if lo != lo2 || hi != hi2 {
		t.Error("PriceNoisy not deterministic in seed")
	}
	// Hybrid jitters more.
	hshape := RunShape{Processes: 2, ThreadsPerProcess: 6, DataBytes: 1 << 20}
	hlo, hhi, _ := m.PriceNoisy(cal, hshape, ops(12, 1e8), simmpi.Stats{}, 20, 1)
	if (hhi-hlo)/hlo <= (hi-lo)/lo*0.5 {
		t.Errorf("hybrid variance (%v) not larger than MPI (%v)", hhi-hlo, hi-lo)
	}
}

func TestEstimateDataBytes(t *testing.T) {
	// BTV-scale: ~0.7 GB per copy, matching the paper's 1.4 GB for two
	// hybrid processes on one node.
	got := EstimateDataBytes(6000000, 3000000)
	if got < 600<<20 || got > 900<<20 {
		t.Errorf("BTV data = %d MB", got>>20)
	}
	if EstimateDataBytes(0, 0) != 0 {
		t.Error("empty molecule has nonzero data")
	}
}

func TestLonestar4Shape(t *testing.T) {
	m := Lonestar4()
	if m.CoresPerNode != 12 {
		t.Errorf("CoresPerNode = %d", m.CoresPerNode)
	}
	if m.Nodes < 36 {
		t.Errorf("Nodes = %d, must fit the Fig. 5 sweep", m.Nodes)
	}
	if m.RAMBytesPerNode != 24<<30 || m.L3BytesPerNode != 12<<20 {
		t.Error("Table I memory sizes wrong")
	}
}

func TestFaultRecoveryCostPriced(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	shape := RunShape{Processes: 2, ThreadsPerProcess: 1, DataBytes: 1 << 20}
	clean, err := m.Price(cal, shape, ops(2, 1e8), simmpi.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.FaultSeconds != 0 {
		t.Errorf("fault-free run priced FaultSeconds = %v", clean.FaultSeconds)
	}
	faulty, err := m.Price(cal, shape, ops(2, 1e8), simmpi.Stats{
		StragglerNanos: 10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.FaultSeconds != 0.010 {
		t.Errorf("FaultSeconds = %v, want 0.010", faulty.FaultSeconds)
	}
	if faulty.TotalSeconds != clean.TotalSeconds+0.010 {
		t.Errorf("recovery cost not in the total: %v vs %v", faulty.TotalSeconds, clean.TotalSeconds)
	}
}

func TestCheckpointPricing(t *testing.T) {
	m := Lonestar4()
	cal := DefaultCalibration()
	shape := RunShape{Processes: 4, ThreadsPerProcess: 1, DataBytes: 1 << 20}

	clean, err := m.Price(cal, shape, ops(4, 1e6), simmpi.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.CheckpointSeconds != 0 {
		t.Errorf("un-checkpointed run priced CheckpointSeconds = %v", clean.CheckpointSeconds)
	}

	traffic := simmpi.Stats{Checkpoints: 4, CheckpointBytes: 3_000_000}
	ck, err := m.Price(cal, shape, ops(4, 1e6), traffic)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*m.DiskLatencySeconds + 3_000_000/m.DiskBytesPerSecond
	if ck.CheckpointSeconds != want {
		t.Errorf("CheckpointSeconds = %v, want %v", ck.CheckpointSeconds, want)
	}
	if ck.TotalSeconds != clean.TotalSeconds+want {
		t.Errorf("checkpoint cost not folded into the total: %v vs %v + %v",
			ck.TotalSeconds, clean.TotalSeconds, want)
	}

	// A Machine literal without disk parameters prices the latency and
	// bytes terms as free instead of dividing by zero.
	m.DiskLatencySeconds, m.DiskBytesPerSecond = 0, 0
	free, err := m.Price(cal, shape, ops(4, 1e6), traffic)
	if err != nil {
		t.Fatal(err)
	}
	if free.CheckpointSeconds != 0 {
		t.Errorf("disk-less machine priced checkpoints at %v", free.CheckpointSeconds)
	}
}
