// Package simmpi is an in-process message-passing runtime standing in for
// MPI (Go has no MPI ecosystem): ranks are goroutines, point-to-point
// messages move through per-pair channels, and the collectives (Barrier,
// Allreduce, Allgatherv) are implemented over a reusable generation
// barrier with real data movement.
//
// All communication traffic is recorded (message counts, byte volumes,
// collective events, and — under fault injection — modeled straggler
// stall time, detected corruptions and retransmits) so the performance
// model in internal/perf can price runs with the ts/tw (α–β) cost model
// the paper uses in §IV-C — the computation is executed for real, only the
// *time* of the interconnect is modeled.
//
// Collective reductions are computed in rank order on every rank, so
// results are deterministic and identical across ranks and across runs
// with the same rank count.
//
// # Fault model
//
// RunPlan accepts a fault.Plan whose events the world injects at
// communication operations: ranks crash, stragglers stall, and collective
// contributions are corrupted in transit (always detected by checksum and
// retransmitted). The runtime itself never deadlocks on a lost rank:
//
//   - the generation barrier releases once every *live* rank has arrived,
//     and a rank dying mid-wait re-evaluates the release condition;
//   - collectives combine the contributions of the ranks that are alive
//     this round (dead ranks are skipped, not waited for);
//   - Recv unblocks with a *RankLostError when its peer dies;
//   - a rank returning an error, or genuinely panicking, aborts the world:
//     every blocked operation returns the causal error instead of hanging.
//
// Recovering lost work (or degrading gracefully) is the *driver's* job.
// The runtime gives it membership on the plan's op clock (Lost: a rank
// that crashed at op k is lost from op k+1 on, the same set on every
// survivor at the same program point) and the error returns that make
// those policies implementable without deadlock. Health is the world's
// instantaneous view, for monitoring.
package simmpi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/obs"
)

// Op is a reduction operator.
type Op int

const (
	// Sum adds elementwise.
	Sum Op = iota
	// Min takes the elementwise minimum.
	Min
	// Max takes the elementwise maximum.
	Max
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Min:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}

// CollectiveKind labels a collective operation in the traffic log.
type CollectiveKind string

// Collective kinds recorded in Stats.
const (
	KindBarrier    CollectiveKind = "barrier"
	KindAllreduce  CollectiveKind = "allreduce"
	KindAllgatherv CollectiveKind = "allgatherv"
)

// CollectiveStat aggregates the calls of one collective kind.
type CollectiveStat struct {
	Calls int64
	// Bytes is the per-rank payload volume summed over calls (the "m" of
	// the ts + m·tw cost model).
	Bytes int64
}

// Stats is the world's accumulated communication traffic.
type Stats struct {
	P2PMessages int64
	P2PBytes    int64
	Collectives map[CollectiveKind]CollectiveStat

	// StragglerNanos is the modeled injected compute slowdown;
	// internal/perf prices it as recovery cost.
	StragglerNanos int64
	// Corruptions counts payloads bit-flipped in transit by injected
	// Corrupt events; Retransmits the extra collective rounds spent
	// re-sending after a detected corruption. Every injected corruption is
	// detected by the payload checksums (asserted by the chaos matrix) —
	// these count the recovery work, not silent damage.
	Corruptions int64
	Retransmits int64
	// Checkpoints and CheckpointBytes count the phase snapshots recorded
	// via RecordCheckpoint and their encoded volume; internal/perf prices
	// them as stable-storage writes.
	Checkpoints     int64
	CheckpointBytes int64
	// LostRanks are the ranks killed by injected crashes, sorted.
	LostRanks []int
}

// ErrCorrupt reports a collective contribution whose checksum still fails
// after a bounded number of retransmits — an injected corruption that was
// detected and escalated (through the drivers, to the run supervisor).
var ErrCorrupt = errors.New("simmpi: payload corrupted in transit")

// RankLostError reports that an operation could not complete because the
// named peer ranks crashed.
type RankLostError struct {
	Ranks []int
}

func (e *RankLostError) Error() string {
	return fmt.Sprintf("simmpi: rank(s) %v lost", e.Ranks)
}

// Health is a snapshot of the world's per-rank state.
type Health struct {
	// Live holds the ranks still executing.
	Live []int
	// Lost holds the ranks killed by injected crashes.
	Lost []int
	// Straggling holds the ranks the fault plan slows down.
	Straggling []int
}

// World is one communicator instance shared by all ranks of a Run.
type World struct {
	size int

	// point-to-point mailboxes: mail[to][from].
	mail [][]chan []float64

	// generation barrier + collective scratch, all guarded by mu. live is
	// the number of ranks still executing: the barrier releases when every
	// live rank has arrived, and retiring a rank (crash or normal return)
	// re-checks the condition so nobody waits for the dead.
	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	gen      uint64
	live     int
	gone     []bool // retired (crashed or returned), by rank
	slotOK   []bool // slot contributed to the collective round in flight
	slots    [][]float64
	slotSum  []uint32 // per-slot payload checksums (under injection only)
	abortErr error
	lost     []int // injected-crash ranks

	// deadCh[r] closes when rank r retires; abortCh closes on world abort.
	// Blocked point-to-point operations select on these to stay deadlock-
	// free.
	deadCh  []chan struct{}
	abortCh chan struct{}

	inj *fault.Injector

	// rec is the optional observability recorder: collectives open
	// "comm:<kind>" spans on the calling rank and count calls/bytes per
	// kind; fault points count injected events. All obs methods are
	// nil-safe, so a nil rec costs nothing.
	rec *obs.Recorder

	p2pMessages     atomic.Int64
	p2pBytes        atomic.Int64
	stragglerNanos  atomic.Int64
	corruptions     atomic.Int64
	retransmits     atomic.Int64
	checkpoints     atomic.Int64
	checkpointBytes atomic.Int64
	collMu          sync.Mutex
	collectives     map[CollectiveKind]CollectiveStat
}

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int
	// commSeq counts this rank's collective rounds per kind (1-based).
	// Each round's count rides its comm span as the seq tag
	// (obs.StartSpanSeq), which is how the critical-path analyzer
	// matches one logical collective across ranks without comparing
	// wall clocks. Only the rank's own goroutine touches it.
	commSeq map[CollectiveKind]int64
}

const float64Bytes = 8

// maxRealSleep caps the real in-process sleep of injected straggle faults;
// the full duration is recorded in the modeled stall statistics.
const maxRealSleep = 2 * time.Millisecond

// rankCrashed is the panic sentinel an injected crash uses to unwind the
// rank's stack; Run recognizes it and does not treat it as a failure of
// the program under test.
type rankCrashed struct{ rank int }

// Run executes fn on `size` ranks concurrently and returns the world's
// traffic statistics once every rank has returned. A rank returning an
// error, or panicking, aborts the world: blocked communication on the
// surviving ranks returns the causal error instead of deadlocking, and
// Run reports that cause.
func Run(size int, fn func(c *Comm) error) (Stats, error) {
	return RunPlan(size, nil, fn)
}

// RunPlan is Run under fault injection: the plan's events are applied at
// the ranks' communication operations. Injected crashes do NOT abort the
// world — survivors keep running (collectives skip the dead) and the lost
// ranks are reported in Stats.LostRanks, leaving recovery policy to the
// caller.
func RunPlan(size int, plan *fault.Plan, fn func(c *Comm) error) (Stats, error) {
	return RunPlanObs(size, plan, nil, fn)
}

// RunPlanObs is RunPlan with an observability recorder: collectives and
// fault events are recorded per rank, and every rank goroutine runs under
// a pprof "simmpi_rank" label so CPU profiles split by rank. A nil rec is
// exactly RunPlan.
func RunPlanObs(size int, plan *fault.Plan, rec *obs.Recorder, fn func(c *Comm) error) (Stats, error) {
	if size < 1 {
		return Stats{}, fmt.Errorf("simmpi: size %d < 1", size)
	}
	w := &World{
		size:        size,
		live:        size,
		gone:        make([]bool, size),
		slotOK:      make([]bool, size),
		slots:       make([][]float64, size),
		slotSum:     make([]uint32, size),
		deadCh:      make([]chan struct{}, size),
		abortCh:     make(chan struct{}),
		collectives: make(map[CollectiveKind]CollectiveStat),
		rec:         rec,
	}
	if !plan.Empty() {
		w.inj = plan.NewInjector(size)
	}
	// Publish the world's live-rank view on the recorder so obs.Serve can
	// answer /healthz during the run. obs cannot import simmpi (the
	// dependency runs the other way), so the view crosses as a closure.
	// The snapshot keeps working after Run returns: a finished world
	// reports every surviving rank as retired-normally, i.e. Lost stays
	// the injected-crash list.
	rec.SetHealthSource(func() obs.HealthView {
		h := (&Comm{world: w, rank: 0}).Health()
		return obs.HealthView{Live: h.Live, Lost: h.Lost, Straggling: h.Straggling}
	})
	w.cond = sync.NewCond(&w.mu)
	for r := range w.deadCh {
		w.deadCh[r] = make(chan struct{})
	}
	w.mail = make([][]chan []float64, size)
	for to := range w.mail {
		w.mail[to] = make([]chan []float64, size)
		for from := range w.mail[to] {
			w.mail[to][from] = make(chan []float64, 64)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				rec := recover()
				if rec == nil {
					w.retire(rank, false)
					return
				}
				if _, crashed := rec.(rankCrashed); crashed {
					return // already retired by kill
				}
				err := fmt.Errorf("simmpi: rank %d panicked: %v", rank, rec)
				errs[rank] = err
				w.abort(err)
				w.retire(rank, false)
			}()
			body := func() {
				if err := fn(&Comm{world: w, rank: rank}); err != nil {
					errs[rank] = err
					w.abort(err)
				}
			}
			if w.rec == nil {
				body()
				return
			}
			// Label the rank's goroutine (and everything it spawns) so CPU
			// profiles can be split per rank. A crash panic propagates
			// through pprof.Do to the recover above.
			pprof.Do(context.Background(),
				pprof.Labels("simmpi_rank", strconv.Itoa(rank)),
				func(context.Context) { body() })
		}(r)
	}
	wg.Wait()
	stats := w.stats()
	if cause := w.aborted(); cause != nil {
		return stats, cause
	}
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// retire removes a rank from the live set — on crash (injected = true) or
// normal return — releasing any barrier now satisfied by the survivors
// and unblocking peers waiting on this rank.
func (w *World) retire(rank int, injected bool) {
	w.mu.Lock()
	if w.gone[rank] {
		w.mu.Unlock()
		return
	}
	w.gone[rank] = true
	w.slotOK[rank] = false
	w.slots[rank] = nil
	w.live--
	if injected {
		w.lost = append(w.lost, rank)
	}
	close(w.deadCh[rank])
	if w.live > 0 && w.arrived >= w.live {
		w.releaseLocked()
	} else {
		// Wake waiters so they re-check abort state.
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

func (w *World) releaseLocked() {
	w.arrived = 0
	w.gen++
	w.cond.Broadcast()
}

// abort cancels the world with a causal error: all blocked and future
// communication returns it.
func (w *World) abort(err error) {
	w.mu.Lock()
	if w.abortErr == nil {
		w.abortErr = err
		close(w.abortCh)
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// aborted returns the abort cause, or nil.
func (w *World) aborted() error {
	select {
	case <-w.abortCh:
		w.mu.Lock()
		err := w.abortErr
		w.mu.Unlock()
		return err
	default:
		return nil
	}
}

func (w *World) stats() Stats {
	w.collMu.Lock()
	coll := make(map[CollectiveKind]CollectiveStat, len(w.collectives))
	for k, v := range w.collectives {
		coll[k] = v
	}
	w.collMu.Unlock()
	w.mu.Lock()
	lost := append([]int(nil), w.lost...)
	w.mu.Unlock()
	sort.Ints(lost)
	return Stats{
		P2PMessages:     w.p2pMessages.Load(),
		P2PBytes:        w.p2pBytes.Load(),
		Collectives:     coll,
		StragglerNanos:  w.stragglerNanos.Load(),
		Corruptions:     w.corruptions.Load(),
		Retransmits:     w.retransmits.Load(),
		Checkpoints:     w.checkpoints.Load(),
		CheckpointBytes: w.checkpointBytes.Load(),
		LostRanks:       lost,
	}
}

func (w *World) recordCollective(kind CollectiveKind, bytesPerRank int64) {
	w.collMu.Lock()
	s := w.collectives[kind]
	s.Calls++
	s.Bytes += bytesPerRank
	w.collectives[kind] = s
	w.collMu.Unlock()
	// Exactly one rank per collective call reaches here, so the counters
	// count calls, not call×ranks. The per-call payload distribution is a
	// workload property too, so it histograms on the counter side.
	w.rec.Count("comm."+string(kind)+".calls", 1)
	w.rec.Count("comm."+string(kind)+".bytes", bytesPerRank)
	w.rec.Observe("comm."+string(kind)+".bytes.percall", bytesPerRank)
}

// span opens a "comm:<kind>" span on this rank — inert when the world has
// no recorder. Opened before the collective's fault point so injected
// stall time shows up inside the communication slice.
func (c *Comm) span(kind CollectiveKind) obs.Span {
	if c.commSeq == nil {
		c.commSeq = make(map[CollectiveKind]int64)
	}
	c.commSeq[kind]++
	return c.world.rec.StartSpanSeq(c.rank, "comm:"+string(kind), c.commSeq[kind])
}

// faultPoint is consulted at every communication operation: it applies
// the injected faults for this op and returns the abort cause if the
// world is canceled, or nil. An injected crash does not return — it
// retires the rank and unwinds via panic. The returned Action carries the
// verdict the *caller* must apply: Corrupt, which bit-flips a collective
// contribution in transit (operations without one ignore it).
func (c *Comm) faultPoint() (fault.Action, error) {
	w := c.world
	if err := w.aborted(); err != nil {
		return fault.Action{}, err
	}
	if w.inj == nil {
		return fault.Action{}, nil
	}
	act := w.inj.Advance(c.rank)
	if act.Straggle > 0 {
		w.rec.Count("fault.straggles", 1)
		w.rec.Event(c.rank, "fault", "straggle")
		w.stragglerNanos.Add(int64(act.Straggle))
		sleepCapped(act.Straggle)
	}
	if act.Crash {
		w.rec.Count("fault.crashes", 1)
		w.rec.Event(c.rank, "fault", "crash")
		w.retire(c.rank, true)
		panic(rankCrashed{c.rank})
	}
	return act, nil
}

// payloadChecksum is the CRC32 (IEEE) of the payload's float bit
// patterns. Bitwise — two NaNs with different payloads differ — because
// the integrity check must detect any transit bit-flip, not semantic
// inequality.
func payloadChecksum(data []float64) uint32 {
	crc := crc32.NewIEEE()
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		crc.Write(b[:]) // hash.Hash.Write is documented to never fail
	}
	return crc.Sum32()
}

// corruptPayload returns a copy of data with one high bit of the first
// element flipped — the smallest injected damage that any honest
// checksum must catch. An empty payload has no bits to flip and is
// returned as-is (corruption of a zero-length contribution is vacuous).
func corruptPayload(data []float64) []float64 {
	out := make([]float64, len(data))
	copy(out, data)
	if len(out) > 0 {
		out[0] = math.Float64frombits(math.Float64bits(out[0]) ^ (1 << 62))
	}
	return out
}

// applyCorrupt implements an Action.Corrupt verdict on a payload: it
// records the injection and returns the damaged copy. Callers gate on
// w.inj != nil (the verdict can only be true under injection).
func (w *World) applyCorrupt(rank int, data []float64) []float64 {
	if len(data) == 0 {
		return data
	}
	w.rec.Count("fault.corruptions", 1)
	w.rec.Event(rank, "fault", "corrupt")
	w.corruptions.Add(1)
	return corruptPayload(data)
}

func sleepCapped(d time.Duration) {
	if d > maxRealSleep {
		d = maxRealSleep
	}
	time.Sleep(d)
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks the world started with (crashed ranks
// included — rank ids are stable).
func (c *Comm) Size() int { return c.world.size }

// Alive reports whether the rank is still executing.
func (c *Comm) Alive(rank int) bool {
	w := c.world
	w.mu.Lock()
	alive := rank >= 0 && rank < w.size && !w.gone[rank]
	w.mu.Unlock()
	return alive
}

// Lost returns the ranks lost as seen from this rank's point in its
// program, sorted: those the plan crashed at an op below this rank's next
// op index (fault.Injector.CrashedBefore). Live ranks of an SPMD program
// pass the same ops in the same order, so every survivor reads the same
// set at the same program point whatever the schedule — the membership a
// recovery protocol can branch on without an agreement round. Nil
// without a plan.
func (c *Comm) Lost() []int { return c.world.inj.CrashedBefore(c.rank) }

// Health returns the world's per-rank health snapshot. Live and Lost are
// the instantaneous view, the ranks executing and retired by a crash right
// now, which depends on the goroutine schedule: they are for monitoring
// (obs's /healthz, serve's shed trigger), and recovery decisions read
// Lost instead. Straggling comes from the plan.
func (c *Comm) Health() Health {
	w := c.world
	h := Health{Straggling: w.inj.Stragglers()}
	w.mu.Lock()
	h.Lost = append([]int(nil), w.lost...)
	for r := 0; r < w.size; r++ {
		if !w.gone[r] {
			h.Live = append(h.Live, r)
		}
	}
	w.mu.Unlock()
	sort.Ints(h.Lost)
	return h
}

// Tick is a communication-free fault point for compute loops: it advances
// this rank's operation counter so crash and straggler events can strike
// mid-phase, and returns the abort cause if the world is canceled. Safe
// to call only from the rank's own goroutine (a crash unwinds the calling
// stack). There is no payload, so a Corrupt verdict here is inert.
func (c *Comm) Tick() error {
	_, err := c.faultPoint()
	return err
}

// Send delivers a copy of data to rank `to`. It blocks only if the
// destination mailbox is full (64 outstanding messages), and unblocks
// with a *RankLostError if the destination dies.
func (c *Comm) Send(to int, data []float64) error {
	w := c.world
	if to < 0 || to >= w.size {
		return fmt.Errorf("simmpi: Send to invalid rank %d (world size %d)", to, w.size)
	}
	if _, err := c.faultPoint(); err != nil {
		return err
	}
	w.p2pMessages.Add(1)
	w.p2pBytes.Add(int64(len(data)) * float64Bytes)
	if !c.Alive(to) {
		return &RankLostError{Ranks: []int{to}}
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	select {
	case w.mail[to][c.rank] <- buf:
		return nil
	case <-w.deadCh[to]:
		return &RankLostError{Ranks: []int{to}}
	case <-w.abortCh:
		return w.aborted()
	}
}

// Recv blocks until a message from rank `from` arrives and returns it. It
// unblocks with a *RankLostError if `from` dies with an empty mailbox, or
// with the abort cause if the world is canceled.
func (c *Comm) Recv(from int) ([]float64, error) {
	w := c.world
	if from < 0 || from >= w.size {
		return nil, fmt.Errorf("simmpi: Recv from invalid rank %d (world size %d)", from, w.size)
	}
	if _, err := c.faultPoint(); err != nil {
		return nil, err
	}
	box := w.mail[c.rank][from]
	select {
	case m := <-box:
		return m, nil
	default:
	}
	select {
	case m := <-box:
		return m, nil
	case <-w.deadCh[from]:
		// The peer died — but a message may already be in flight.
		select {
		case m := <-box:
			return m, nil
		default:
			return nil, &RankLostError{Ranks: []int{from}}
		}
	case <-w.abortCh:
		return nil, w.aborted()
	}
}

// TryRecv returns a pending message from rank `from` without blocking;
// ok is false when the mailbox is empty. This is the polling primitive
// the dynamic load-balancing coordinator uses to serve many workers. It
// is not a fault point: polling frequency is scheduler-dependent, and
// charging it to the op counter would make fault replay nondeterministic.
func (c *Comm) TryRecv(from int) (data []float64, ok bool) {
	select {
	case m := <-c.world.mail[c.rank][from]:
		return m, true
	default:
		return nil, false
	}
}

// Barrier blocks until every live rank has entered it. It returns the
// abort cause if the world is canceled while waiting — never deadlocking
// on a crashed or panicked rank.
func (c *Comm) Barrier() error {
	w := c.world
	sp := c.span(KindBarrier)
	defer sp.End()
	if _, err := c.faultPoint(); err != nil {
		return err
	}
	if c.rank == 0 {
		w.recordCollective(KindBarrier, 0)
	}
	return c.barrierNoRecord()
}

// Sync blocks until every live rank arrives, like Barrier, but is NOT a
// fault point, opens no span, and records no traffic. It exists for
// checkpoint coordination: bracketing a snapshot with Syncs must not
// shift the per-rank operation counters a fault plan replays against,
// and must not add counters that would break the Summary identity
// between a resumed and an uninterrupted run.
func (c *Comm) Sync() error { return c.barrierNoRecord() }

// RecordCheckpoint accounts one phase snapshot of the given encoded size
// on the traffic statistics (priced by internal/perf as a
// stable-storage write) and on the observational gauges. Deliberately
// NOT a deterministic counter: an uninterrupted run saves every phase
// while a resumed run saves only the remaining ones, and the checkpoint
// ledger must not break the counter-side Summary identity between them.
func (c *Comm) RecordCheckpoint(bytes int64) {
	w := c.world
	w.checkpoints.Add(1)
	w.checkpointBytes.Add(bytes)
	w.rec.GaugeAdd("ckpt.saves", 1)
	w.rec.GaugeAdd("ckpt.bytes", bytes)
}

// barrierNoRecord is Barrier without a traffic-log entry, used internally
// by collectives (their cost already covers synchronization).
func (c *Comm) barrierNoRecord() error {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.abortErr != nil {
		return w.abortErr
	}
	gen := w.gen
	w.arrived++
	if w.arrived >= w.live {
		w.releaseLocked()
		return nil
	}
	for w.gen == gen && w.abortErr == nil {
		w.cond.Wait()
	}
	if w.gen == gen {
		return w.abortErr
	}
	return nil
}

// contribute publishes this rank's slice for the collective round in
// flight, applying an injected corruption verdict to the copy in flight
// (the checksum always covers the authentic data, so the damage is
// detectable). Writes are per-rank-indexed and ordered by the barrier
// mutex, so no extra locking is needed.
func (c *Comm) contribute(data []float64, corrupt bool) {
	w := c.world
	if w.inj != nil {
		w.slotSum[c.rank] = payloadChecksum(data)
		if corrupt {
			data = w.applyCorrupt(c.rank, data)
		}
	}
	w.slots[c.rank] = data
	w.slotOK[c.rank] = true
}

// contributors returns the ranks whose slots belong to this round — the
// ranks alive when the round's first barrier released. Call only between
// the two barriers of a collective.
func (w *World) contributors() []int {
	out := make([]int, 0, w.size)
	for r := 0; r < w.size; r++ {
		if w.slotOK[r] {
			out = append(out, r)
		}
	}
	return out
}

// corruptContributors returns the contributing ranks whose slot fails
// checksum verification, in rank order. Slots are shared memory, so
// every live rank computes the identical verdict and takes the same
// retransmit-or-escalate branch — no divergence, no deadlock. Call only
// between the two barriers of a collective, under injection.
func (w *World) corruptContributors() []int {
	var bad []int
	for r := 0; r < w.size; r++ {
		if w.slotOK[r] && payloadChecksum(w.slots[r]) != w.slotSum[r] {
			bad = append(bad, r)
		}
	}
	return bad
}

// maxRetransmits bounds the re-contribution rounds a collective spends
// on detected corruption before escalating ErrCorrupt to the caller
// (and, through the drivers, to the run supervisor).
const maxRetransmits = 3

// contributeVerified is the integrity-checked head of every data
// collective: contribute, synchronize, verify every contribution, and
// retransmit a bounded number of times if any slot arrived corrupted. On
// success the slots hold authentic data. Each retransmit round consumes
// one fault-plan op per rank (a real re-attempt) and re-synchronizes
// before re-contributing so slot writes never race verification reads.
func (c *Comm) contributeVerified(kind CollectiveKind, data []float64, act fault.Action) error {
	w := c.world
	for attempt := 0; ; attempt++ {
		c.contribute(data, act.Corrupt)
		if err := c.barrierNoRecord(); err != nil {
			return err
		}
		if w.inj == nil {
			// Clean runs: no checksums were computed, nothing to verify —
			// and no extra barriers, so op alignment matches the seed.
			return nil
		}
		bad := w.corruptContributors()
		if len(bad) == 0 {
			return nil
		}
		// Detection and retransmit are counted once per round by the lowest
		// contributor, while the slots are still race-free to read.
		leader := false
		if ranks := w.contributors(); len(ranks) > 0 && c.rank == ranks[0] {
			leader = true
		}
		if leader {
			w.rec.Count("fault.corruptions.detected", 1)
		}
		if attempt >= maxRetransmits {
			// Every rank takes this branch on the shared verdict, but a fast
			// rank returning here exits fn and retires, which clears its slot
			// state — so re-sync first, or a slower peer still verifying would
			// read an emptied slot table and conclude the round was clean.
			if err := c.barrierNoRecord(); err != nil {
				return err
			}
			return fmt.Errorf("simmpi: %s payload from rank(s) %v still corrupt after %d retransmits: %w",
				kind, bad, maxRetransmits, ErrCorrupt)
		}
		if leader {
			w.retransmits.Add(1)
			w.rec.Count("comm.retransmits", 1)
			w.rec.Event(c.rank, "comm", "retransmit")
		}
		// Resync so nobody re-contributes while a peer is still verifying,
		// then consume a fresh op: the retransmit is a real re-attempt and
		// may itself be corrupted (or crash the rank).
		if err := c.barrierNoRecord(); err != nil {
			return err
		}
		var err error
		act, err = c.faultPoint()
		if err != nil {
			return err
		}
	}
}

// Allreduce combines data elementwise across the live ranks with op and
// returns the combined vector on every rank. All ranks must pass
// equal-length slices: a mismatch returns an error (on every live rank,
// consistently) instead of panicking. The input is not modified.
func (c *Comm) Allreduce(data []float64, op Op) ([]float64, error) {
	w := c.world
	sp := c.span(KindAllreduce)
	defer sp.End()
	act, err := c.faultPoint()
	if err != nil {
		return nil, err
	}
	if err := c.contributeVerified(KindAllreduce, data, act); err != nil {
		return nil, err
	}
	ranks := w.contributors()
	first := ranks[0]
	out := make([]float64, len(w.slots[first]))
	copy(out, w.slots[first])
	for _, r := range ranks[1:] {
		if len(w.slots[r]) != len(out) {
			// Every live rank computes the same verdict from the same
			// slots and returns here, skipping the close barrier in
			// lockstep; the error then propagates out of Run via fn.
			return nil, fmt.Errorf("simmpi: Allreduce length mismatch: rank %d has %d elements, rank %d has %d",
				r, len(w.slots[r]), first, len(out))
		}
		op.apply(out, w.slots[r])
	}
	if c.rank == first {
		w.recordCollective(KindAllreduce, int64(len(out))*float64Bytes)
	}
	if err := c.barrierNoRecord(); err != nil {
		return nil, err
	}
	return out, nil
}

// Allgatherv concatenates every live rank's (variable-length)
// contribution in rank order and returns the concatenation on every rank.
// Crashed ranks contribute nothing, so a caller that reads the
// concatenation by position must discard a round in which Lost changed.
func (c *Comm) Allgatherv(data []float64) ([]float64, error) {
	w := c.world
	sp := c.span(KindAllgatherv)
	defer sp.End()
	act, err := c.faultPoint()
	if err != nil {
		return nil, err
	}
	if err := c.contributeVerified(KindAllgatherv, data, act); err != nil {
		return nil, err
	}
	ranks := w.contributors()
	total := 0
	for _, r := range ranks {
		total += len(w.slots[r])
	}
	if c.rank == ranks[0] {
		// Bytes records the full gathered vector (the "m" of the
		// ts + tw·m·(P−1)/P cost model).
		w.recordCollective(KindAllgatherv, int64(total)*float64Bytes)
	}
	out := make([]float64, 0, total)
	for _, r := range ranks {
		out = append(out, w.slots[r]...)
	}
	if err := c.barrierNoRecord(); err != nil {
		return nil, err
	}
	return out, nil
}
