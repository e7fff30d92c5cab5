// Package fault provides a deterministic, replayable fault model for the
// simulated cluster runtime: a Plan is a seeded list of injected events
// (rank crashes, straggler slowdowns, corrupted collective payloads) that
// internal/simmpi consults at every communication operation. Events
// trigger on per-rank operation counters, never on wall-clock time, and
// membership is read from the same clock (Injector.CrashedBefore): a rank
// that crashed at op k is lost, for every survivor, from op k+1 on. So a
// plan replays identically on every run of an SPMD driver, whatever the
// goroutine schedule — the property the chaos tests and the -faults
// replay flag of cmd/clustersim rely on.
//
// The package knows nothing about simmpi; simmpi imports fault and asks
// the Injector what to do at each operation.
package fault

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Kind is the type of an injected fault event.
type Kind uint8

const (
	// Crash kills the rank at its AtOp-th communication operation: the
	// rank stops executing and never contributes again.
	Crash Kind = iota
	// Straggle slows the rank down: every operation in [AtOp, AtOp+Count)
	// stalls by Dur (modeled in full in the traffic statistics; the real
	// in-process sleep is capped so tests stay fast), emulating a rank
	// pinned on an oversubscribed or thermally-throttled node.
	Straggle
	// Corrupt flips bits in the collective contribution Rank publishes at
	// the affected operations (operations without a payload are
	// unaffected). The runtime checksums contributions under injection, so
	// corruption is always *detected* — this kind tests the
	// detection/retransmit machinery, not silent data loss.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggle:
		return "slow"
	case Corrupt:
		return "corrupt"
	}
	return "unknown"
}

// Event is one injected fault.
type Event struct {
	Kind Kind
	// Rank is the acting rank.
	Rank int
	// AtOp is the first affected operation index of Rank's per-rank
	// operation counter.
	AtOp int64
	// Count is the number of affected operations (Straggle/Corrupt);
	// values < 1 are treated as 1. Ignored for Crash.
	Count int64
	// Dur is the injected per-operation stall (Straggle).
	Dur time.Duration
}

// Plan is a replayable fault schedule.
type Plan struct {
	// Seed records the chaos-generator seed the plan came from (0 for
	// hand-written plans); it is provenance only — replay needs nothing
	// but Events.
	Seed   int64
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Chaos generates a random-but-reproducible plan for a world of the given
// size: n events drawn from crashes and stragglers. Rank 0 and at least
// half the ranks are never crashed, so every run retains survivors able to
// heal or degrade (killing everything is a different test, written by
// hand).
func Chaos(seed int64, ranks, n int) *Plan {
	return chaos(seed, ranks, n, []Kind{Crash, Straggle})
}

// ChaosWithCorruption is Chaos with Corrupt events mixed into the draw.
func ChaosWithCorruption(seed int64, ranks, n int) *Plan {
	return chaos(seed, ranks, n, []Kind{Crash, Straggle, Corrupt})
}

// chaosOps is the op range chaos draws crash and corrupt events from: a
// clean run of internal/gb's driver passes six fault points per rank (a
// tick and a collective in each of its three phases), so an event drawn
// past them would fire only on runs that a redo or a retransmit has
// lengthened, and mostly never.
const chaosOps = 6

// chaos draws n events uniformly from kinds; a crash past the crash
// budget (or in a one-rank world) becomes a straggler.
func chaos(seed int64, ranks, n int, kinds []Kind) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	maxCrashes := (ranks - 1) / 2
	crashes := 0
	for i := 0; i < n; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		if kind == Crash && (crashes >= maxCrashes || ranks < 2) {
			kind = Straggle
		}
		ev := Event{Kind: kind}
		switch kind {
		case Crash:
			// Spare rank 0: it is the output/coordination rank of the
			// drivers and its failover is exercised by dedicated tests.
			ev.Rank = 1 + rng.Intn(ranks-1)
			ev.AtOp = int64(rng.Intn(chaosOps))
			crashes++
		case Straggle:
			ev.Rank = rng.Intn(ranks)
			ev.AtOp = int64(rng.Intn(4))
			ev.Count = int64(4 + rng.Intn(16))
			ev.Dur = time.Duration(20+rng.Intn(200)) * time.Microsecond
		case Corrupt:
			ev.Rank = rng.Intn(ranks)
			ev.AtOp = int64(rng.Intn(chaosOps))
			ev.Count = int64(2 + rng.Intn(2))
		}
		p.Events = append(p.Events, ev)
	}
	return p
}

// Action is the injector's verdict for one operation.
type Action struct {
	// Crash: the rank must die now.
	Crash bool
	// Corrupt: the payload this rank publishes at this operation is
	// bit-flipped in transit.
	Corrupt bool
	// Straggle is injected compute slowdown for this operation.
	Straggle time.Duration
}

// Injector is the mutable per-run state of a plan: per-rank operation
// counters plus the event windows. Safe for concurrent use by the rank
// goroutines (state is sharded per rank).
type Injector struct {
	ranks []rankState
}

type rankState struct {
	mu      sync.Mutex
	op      int64
	crashAt int64 // earliest crash op; -1 = never
	windows []window
}

type window struct {
	kind  Kind
	at    int64
	count int64
	dur   time.Duration
}

// NewInjector compiles the plan for a world of `ranks` ranks. Events
// naming out-of-range ranks are ignored (a plan written for a larger
// world replays harmlessly on a smaller one).
func (p *Plan) NewInjector(ranks int) *Injector {
	in := &Injector{ranks: make([]rankState, ranks)}
	for i := range in.ranks {
		in.ranks[i].crashAt = -1
	}
	if p == nil {
		return in
	}
	for _, ev := range p.Events {
		if ev.Rank < 0 || ev.Rank >= ranks {
			continue
		}
		rs := &in.ranks[ev.Rank]
		if ev.Kind == Crash {
			if rs.crashAt < 0 || ev.AtOp < rs.crashAt {
				rs.crashAt = ev.AtOp
			}
			continue
		}
		count := ev.Count
		if count < 1 {
			count = 1
		}
		rs.windows = append(rs.windows, window{
			kind: ev.Kind, at: ev.AtOp, count: count, dur: ev.Dur,
		})
	}
	return in
}

// Advance consumes one operation slot for rank and returns the injected
// faults for it.
func (in *Injector) Advance(rank int) Action {
	if in == nil || rank < 0 || rank >= len(in.ranks) {
		return Action{}
	}
	rs := &in.ranks[rank]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	op := rs.op
	rs.op++
	var act Action
	if rs.crashAt >= 0 && op >= rs.crashAt {
		act.Crash = true
	}
	for i := range rs.windows {
		w := &rs.windows[i]
		// op-w.at, unlike w.at+w.count, cannot overflow once op ≥ w.at.
		if op < w.at || op-w.at >= w.count {
			continue
		}
		switch w.kind {
		case Straggle:
			act.Straggle += w.dur
		case Corrupt:
			act.Corrupt = true
		}
	}
	return act
}

// CrashedBefore returns the ranks, sorted, whose crash op lies below
// rank's next op index: the ranks that are lost as seen from rank's
// current point in its program. Live ranks of an SPMD program pass the
// same op indices in the same order, so at any program point every
// survivor gets the same set whatever the goroutine schedule: a rank that
// crashed at op k is lost from op k+1 on, and never before. The plan is
// the only source of crashes, so its clock is ground truth and no
// agreement round is needed.
func (in *Injector) CrashedBefore(rank int) []int {
	if in == nil || rank < 0 || rank >= len(in.ranks) {
		return nil
	}
	rs := &in.ranks[rank]
	rs.mu.Lock()
	next := rs.op
	rs.mu.Unlock()
	var out []int
	// crashAt is fixed by NewInjector before any rank runs.
	for r := range in.ranks {
		if at := in.ranks[r].crashAt; at >= 0 && at < next {
			out = append(out, r)
		}
	}
	return out
}

// Stragglers returns the ranks with at least one Straggle window — the
// oracle half of straggler detection that the health view exposes.
func (in *Injector) Stragglers() []int {
	if in == nil {
		return nil
	}
	var out []int
	for r := range in.ranks {
		for _, w := range in.ranks[r].windows {
			if w.kind == Straggle {
				out = append(out, r)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}
