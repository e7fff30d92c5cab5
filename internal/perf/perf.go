// Package perf models the paper's execution platform: it turns *measured*
// quantities from real in-process runs (per-core interaction counts,
// communication traffic from simmpi, working-set sizes) into modeled
// wall-clock seconds on a cluster of multicores.
//
// This is the documented substitution for the Lonestar4 cluster (DESIGN.md
// §2): the algorithms execute for real and produce exact energies; only
// the mapping from operation counts to seconds goes through this α–β
// (ts/tw) cost model — the same model the paper itself uses for its
// complexity analysis in §IV-C. The model captures the four mechanisms the
// paper credits for its scalability shapes:
//
//  1. per-core compute rate with a cache-capacity factor (smaller per-core
//     segments fit cache better — §V-B),
//  2. ts/tw communication costs growing with the rank count (OCT_MPI runs
//     6× the ranks of OCT_MPI+CILK — §V-B),
//  3. memory replication per distributed rank (12 single-thread ranks hold
//     ~6× the memory of 2×6-thread ranks — §V-B) with a thrashing penalty
//     once a node exceeds RAM,
//  4. hybrid-runtime overheads (cilk scheduling + MPI/cilk interfacing)
//     that dominate for small molecules — §V-C.
package perf

import (
	"fmt"
	"math"
	"math/rand"

	"gbpolar/internal/obs"
	"gbpolar/internal/simmpi"
)

// Machine describes a cluster of multicore nodes.
type Machine struct {
	Name         string
	Nodes        int
	CoresPerNode int
	// OpsPerSecond is the per-core rate of pairwise-interaction
	// evaluations (distance + exp + sqrt) with everything in cache.
	OpsPerSecond float64
	// L3BytesPerNode and RAMBytesPerNode bound the cache/memory capacity
	// factors.
	L3BytesPerNode  int64
	RAMBytesPerNode int64
	// Ts is the message startup latency (seconds); Tw the per-byte
	// transfer time (seconds/byte) across the interconnect.
	Ts, Tw float64
	// IntraNodeFactor scales Ts/Tw for traffic between ranks on the same
	// node (<1: shared memory is cheaper than the wire).
	IntraNodeFactor float64
	// CoresPerSocket bounds a single process's threads before its memory
	// traffic crosses sockets (the §V-A NUMA effect).
	CoresPerSocket int
	// DiskLatencySeconds and DiskBytesPerSecond model the stable-storage
	// target of phase checkpoints: a fixed per-snapshot commit latency
	// (metadata + fsync on the shared filesystem) plus a streaming write
	// rate. Zero values disable the respective term, so Machine literals
	// predating the checkpoint model price checkpointed runs as free
	// rather than dividing by zero.
	DiskLatencySeconds float64
	DiskBytesPerSecond float64
}

// Lonestar4 returns the paper's Table I machine: 12-core 3.33 GHz Westmere
// nodes, 24 GB RAM, 12 MB L3, QDR InfiniBand (40 Gb/s, ~1.5 µs latency).
// Nodes is set to 40 so the Figure 5/6 sweeps (up to 36 nodes) fit.
func Lonestar4() Machine {
	return Machine{
		Name:            "Lonestar4",
		Nodes:           40,
		CoresPerNode:    12,
		OpsPerSecond:    85e6, // ~40 flops/interaction at 3.33 GHz
		L3BytesPerNode:  12 << 20,
		RAMBytesPerNode: 24 << 30,
		Ts:              1.7e-6,
		Tw:              1.0 / (40e9 / 8 * 0.7), // 70% of 40 Gb/s
		IntraNodeFactor: 0.25,
		CoresPerSocket:  6, // dual-socket hexa-core Westmere
		// Lustre-class shared scratch: ~5 ms commit latency per snapshot,
		// ~300 MB/s sustained from one writer.
		DiskLatencySeconds: 5e-3,
		DiskBytesPerSecond: 300e6,
	}
}

// Calibration holds the model's tunable constants. Defaults reproduce the
// paper's qualitative shapes; every experiment records the calibration it
// used (EXPERIMENTS.md).
type Calibration struct {
	// CacheAlpha is the per-doubling slowdown once a core's active
	// segment exceeds its L3 share.
	CacheAlpha float64
	// CilkFactor multiplies compute time when threads-per-process > 1
	// (cilk-4.5.4 scheduling overhead, no thread affinity — §V-C).
	CilkFactor float64
	// InterfaceOverheadSeconds is the fixed per-run cost of interfacing
	// the work-stealing runtime with message passing (§V-C).
	InterfaceOverheadSeconds float64
	// ThrashBase is the slowdown per doubling of memory demand beyond a
	// node's RAM (page faults — §IV-B).
	ThrashBase float64
	// NoiseMPI / NoiseHybrid bound the per-rank uniform jitter used by
	// PriceNoisy: hybrid runs carry larger variance (randomized work
	// stealing), matching Figure 6's min/max envelopes.
	NoiseMPI, NoiseHybrid float64
	// CollectiveSkewSeconds is the per-collective synchronization cost
	// beyond the wire model: every collective waits for the slowest rank
	// (OS noise, scheduling skew), a cost that grows with log₂P. This is
	// what makes OCT_MPI pay a millisecond-scale floor on small
	// molecules (Fig. 7's "communication cost dominated computation
	// cost" regime).
	CollectiveSkewSeconds float64
	// NUMAPenalty multiplies compute when one process's threads span
	// more than a socket: cilk++ keeps no thread affinity, so the pure
	// shared-memory OCT_CILK (12 threads across two sockets) pays it
	// while the 2×6 hybrid — one process pinned per socket — does not
	// (§V-A).
	NUMAPenalty float64
}

// DefaultCalibration returns the constants used by the benchmark harness.
func DefaultCalibration() Calibration {
	return Calibration{
		CacheAlpha:               0.18,
		CilkFactor:               1.06,
		InterfaceOverheadSeconds: 2.5e-3,
		ThrashBase:               4.0,
		NoiseMPI:                 0.06,
		NoiseHybrid:              0.17,
		CollectiveSkewSeconds:    0.3e-3,
		NUMAPenalty:              1.5,
	}
}

// RunShape describes how a program was laid out on the machine.
type RunShape struct {
	// Processes is the number of message-passing ranks (P).
	Processes int
	// ThreadsPerProcess is the shared-memory width per rank (p); 1 for a
	// purely distributed run.
	ThreadsPerProcess int
	// DataBytes is the size of ONE copy of the input working set (atoms +
	// quadrature points + octrees). Every process replicates it
	// (§IV-A: "each process has a complete set of data"); threads within
	// a process share it.
	DataBytes int64
}

// Cores returns the total core count P×p.
func (s RunShape) Cores() int { return s.Processes * s.ThreadsPerProcess }

// Hybrid reports whether the run uses shared-memory parallelism inside
// ranks.
func (s RunShape) Hybrid() bool { return s.ThreadsPerProcess > 1 }

// Breakdown is a priced run.
type Breakdown struct {
	CompSeconds     float64
	CommSeconds     float64
	OverheadSeconds float64
	// FaultSeconds is the modeled recovery cost of a fault-injected run:
	// the injected straggler stalls, purely waiting time. The wire cost of
	// retransmitted collective rounds is not priced separately.
	FaultSeconds float64
	// CheckpointSeconds is the modeled stable-storage cost of phase
	// snapshots: per-save disk latency plus streamed bytes, from the
	// machine's disk parameters. Zero for runs that never checkpoint.
	CheckpointSeconds float64
	TotalSeconds      float64
	CacheFactor       float64
	ThrashFactor      float64
	MemPerNodeBytes   int64
	NodesUsed         int
}

// Record publishes the priced breakdown into the recorder as gauges
// (modeled seconds are derived from deterministic inputs, but they are a
// model output, not a workload invariant — keep them out of Summary).
// The totals also feed the "perf.layout.total_us" gauge-side histogram,
// so a multi-layout sweep sharing one recorder exposes its distribution
// of modeled layout times on /metrics.
func (b Breakdown) Record(rec *obs.Recorder) {
	rec.Gauge("perf.comp_us", int64(b.CompSeconds*1e6))
	rec.Gauge("perf.comm_us", int64(b.CommSeconds*1e6))
	rec.Gauge("perf.overhead_us", int64(b.OverheadSeconds*1e6))
	rec.Gauge("perf.fault_us", int64(b.FaultSeconds*1e6))
	rec.Gauge("perf.checkpoint_us", int64(b.CheckpointSeconds*1e6))
	rec.Gauge("perf.total_us", int64(b.TotalSeconds*1e6))
	rec.ObserveGauge("perf.layout.total_us", int64(b.TotalSeconds*1e6))
}

// EstimateDataBytes returns the size of one copy of the input working set
// for a molecule with the given atom and quadrature-point counts: atom
// record + octree share (88 B) and quadrature record + octree share (60 B).
func EstimateDataBytes(atoms, qpoints int) int64 {
	return int64(atoms)*88 + int64(qpoints)*60
}

// Price maps a measured run onto the machine. perCoreOps holds the
// interaction-evaluation count of every core (rank for distributed runs,
// worker thread for hybrid ones): compute time follows the *maximum*
// (barrier semantics), so measured load imbalance shows up as modeled
// time. traffic is the simmpi communication log of the run.
func (m Machine) Price(cal Calibration, shape RunShape, perCoreOps []int64, traffic simmpi.Stats) (Breakdown, error) {
	if shape.Processes < 1 || shape.ThreadsPerProcess < 1 {
		return Breakdown{}, fmt.Errorf("perf: invalid shape %+v", shape)
	}
	cores := shape.Cores()
	if cores > m.Nodes*m.CoresPerNode {
		return Breakdown{}, fmt.Errorf("perf: shape needs %d cores, machine has %d",
			cores, m.Nodes*m.CoresPerNode)
	}
	if len(perCoreOps) == 0 {
		return Breakdown{}, fmt.Errorf("perf: no per-core op counts")
	}
	nodesUsed := (cores + m.CoresPerNode - 1) / m.CoresPerNode
	procsPerNode := (shape.Processes + nodesUsed - 1) / nodesUsed

	b := Breakdown{NodesUsed: nodesUsed}
	b.MemPerNodeBytes = int64(procsPerNode) * shape.DataBytes

	// --- compute ---------------------------------------------------------
	maxOps := int64(0)
	for _, ops := range perCoreOps {
		if ops > maxOps {
			maxOps = ops
		}
	}
	b.CacheFactor = 1
	segBytes := float64(shape.DataBytes) / float64(cores)
	cacheShare := float64(m.L3BytesPerNode) / float64(m.CoresPerNode)
	if segBytes > cacheShare {
		b.CacheFactor = 1 + cal.CacheAlpha*math.Log2(segBytes/cacheShare)
	}
	b.ThrashFactor = 1
	if b.MemPerNodeBytes > m.RAMBytesPerNode {
		over := math.Log2(float64(b.MemPerNodeBytes)/float64(m.RAMBytesPerNode)) + 1
		b.ThrashFactor = math.Pow(cal.ThrashBase, over)
	}
	b.CompSeconds = float64(maxOps) / m.OpsPerSecond * b.CacheFactor * b.ThrashFactor
	if shape.ThreadsPerProcess > 1 {
		// The work-stealing runtime's scheduling overhead (§V-C).
		b.CompSeconds *= cal.CilkFactor
	}
	if m.CoresPerSocket > 0 && shape.ThreadsPerProcess > m.CoresPerSocket && cal.NUMAPenalty > 0 {
		// One process's threads span sockets without affinity (§V-A).
		b.CompSeconds *= cal.NUMAPenalty
	}
	if shape.Hybrid() && shape.Processes > 1 {
		// Interfacing the work-stealing runtime with message passing
		// (§V-C) — a true-hybrid cost, not paid by pure OCT_CILK.
		b.OverheadSeconds += cal.InterfaceOverheadSeconds
	}

	// --- communication ---------------------------------------------------
	b.CommSeconds = m.commSeconds(cal, shape, procsPerNode, traffic)

	// --- fault recovery --------------------------------------------------
	b.FaultSeconds = float64(traffic.StragglerNanos) / 1e9

	// --- checkpoints ------------------------------------------------------
	// Only the saver rank writes (one stream per snapshot), so the cost is
	// latency per save plus the bytes at the streaming rate — the other
	// ranks' wait is already covered by the collectives bracketing the save.
	if traffic.Checkpoints > 0 {
		b.CheckpointSeconds = float64(traffic.Checkpoints) * m.DiskLatencySeconds
		if m.DiskBytesPerSecond > 0 {
			b.CheckpointSeconds += float64(traffic.CheckpointBytes) / m.DiskBytesPerSecond
		}
	}

	b.TotalSeconds = b.CompSeconds + b.CommSeconds + b.OverheadSeconds + b.FaultSeconds + b.CheckpointSeconds
	return b, nil
}

// commSeconds prices the communication log with the ts/tw model the paper
// uses in §IV-C: an Allgatherv of m gathered bytes over P ranks costs
// ts·log₂P + tw·m·(P−1)/P per call, an Allreduce twice the wire term, a
// Barrier the latency term alone (all discounted for the fraction of rank
// pairs living on the same node), and point-to-point traffic ts per
// message plus tw per byte.
func (m Machine) commSeconds(cal Calibration, shape RunShape, procsPerNode int, traffic simmpi.Stats) float64 {
	p := float64(shape.Processes)
	if shape.Processes <= 1 {
		return 0
	}
	intraFrac := 0.0
	if shape.Processes > 1 {
		intraFrac = float64(procsPerNode-1) / float64(shape.Processes-1)
	}
	disc := 1 - intraFrac*(1-m.IntraNodeFactor)
	ts := m.Ts * disc
	// Ranks on one node share a single NIC: their inter-node transfers
	// serialize, so the effective per-byte time scales with the number of
	// processes per node. This — not the aggregate volume, which is
	// nearly P-independent for ring-style collectives — is what makes a
	// 12-rank-per-node OCT_MPI run pay ~6× the wire time of a
	// 2-rank-per-node hybrid run (§V-B).
	tw := m.Tw * disc * float64(procsPerNode)
	logP := math.Log2(p)
	if logP < 1 {
		logP = 1
	}
	// Price collectives in sorted-kind order (the shared obs.SortedKeys
	// helper): Go randomizes map iteration, and accumulating float terms
	// in map order would make the priced seconds differ in the low bits
	// between runs of the same workload.
	total := 0.0
	for _, kind := range obs.SortedKeys(traffic.Collectives) {
		st := traffic.Collectives[kind]
		bytes := float64(st.Bytes)
		calls := float64(st.Calls)
		// Synchronization skew: each collective waits for the slowest of
		// P ranks.
		total += calls * cal.CollectiveSkewSeconds * logP
		switch kind {
		case simmpi.KindBarrier:
			total += calls * ts * logP
		case simmpi.KindAllreduce:
			// Reduce-scatter + allgather: data crosses the wire twice.
			total += calls*ts*logP + 2*tw*bytes*(p-1)/p
		case simmpi.KindAllgatherv:
			total += calls*ts*logP + tw*bytes*(p-1)/p
		}
	}
	total += float64(traffic.P2PMessages)*ts + float64(traffic.P2PBytes)*tw
	return total
}

// PriceNoisy prices the run `samples` times with multiplicative per-rank
// jitter (OS noise + scheduling randomness; hybrid runs jitter more, per
// Calibration) and returns the minimum and maximum total seconds — the
// Figure 6 min/max envelope. Deterministic in seed.
func (m Machine) PriceNoisy(cal Calibration, shape RunShape, perCoreOps []int64, traffic simmpi.Stats, samples int, seed int64) (minSec, maxSec float64, err error) {
	base, err := m.Price(cal, shape, perCoreOps, traffic)
	if err != nil {
		return 0, 0, err
	}
	noise := cal.NoiseMPI
	if shape.Hybrid() {
		noise = cal.NoiseHybrid
	}
	rng := rand.New(rand.NewSource(seed))
	minSec, maxSec = math.Inf(1), 0
	for s := 0; s < samples; s++ {
		// The slowest rank sets the time: with n ranks the expected
		// maximum of n jitter draws grows like n/(n+1).
		worst := 0.0
		for r := 0; r < shape.Processes; r++ {
			if j := rng.Float64() * noise; j > worst {
				worst = j
			}
		}
		t := base.CompSeconds*(1+worst) + base.CommSeconds + base.OverheadSeconds + base.FaultSeconds + base.CheckpointSeconds
		if t < minSec {
			minSec = t
		}
		if t > maxSec {
			maxSec = t
		}
	}
	return minSec, maxSec, nil
}
