package fs

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Kind is the type of one injected storage fault.
type Kind uint8

const (
	// ENOSPC fails Count write operations starting at write op AtOp with
	// syscall.ENOSPC: the bytes are not written.
	ENOSPC Kind = iota
	// ShortWrite persists only Cut bytes of each affected write and
	// returns an error for the rest (the os.File contract: an error
	// whenever n < len(p)). Cut < 0 means half the buffer.
	ShortWrite
	// TornWrite reports each affected write as fully successful, but
	// only the first Cut bytes of it survive a simulated crash — the
	// classic partial-page/torn-sector failure, visible only through
	// FaultFS.Crash. Cut < 0 means half the buffer.
	TornWrite
	// SyncError fails Count fsync operations starting at sync op AtOp;
	// the data stays volatile (dropped by a crash) and the caller knows.
	SyncError
	// SyncLie acks Count fsync operations WITHOUT making the data
	// durable: the caller proceeds believing the data safe, and a
	// simulated crash drops it. FaultFS records the lied-to paths so a
	// harness can prove which acknowledged losses trace to the lie.
	SyncLie
	// CorruptRead flips one deterministic bit in the data returned by
	// Count ReadFile operations starting at read op AtOp. The on-disk
	// content is intact — this models a bad cable/DMA/bitrot read path,
	// and tests that every reader checksums what it trusts.
	CorruptRead
	// SlowIO stalls every filesystem operation in [AtOp, AtOp+Count) of
	// the global op counter by Dur each (real sleep capped so tests stay
	// fast, like the network slow kind).
	SlowIO
)

func (k Kind) String() string {
	switch k {
	case ENOSPC:
		return "enospc"
	case ShortWrite:
		return "shortw"
	case TornWrite:
		return "torn"
	case SyncError:
		return "syncerr"
	case SyncLie:
		return "synclie"
	case CorruptRead:
		return "corrupt"
	case SlowIO:
		return "slow"
	}
	return "unknown"
}

// Event is one injected storage fault. Which per-FS operation counter
// AtOp indexes depends on the kind: write ops for ENOSPC/ShortWrite/
// TornWrite, sync ops for SyncError/SyncLie, ReadFile ops for
// CorruptRead, and the global op counter for SlowIO.
type Event struct {
	Kind Kind
	// Cut is the surviving byte count of a short or torn write; -1 (or
	// any negative) means half the affected buffer. Ignored otherwise.
	Cut int
	// AtOp is the first affected operation index.
	AtOp int64
	// Count is the number of affected operations; values < 1 mean 1.
	Count int64
	// Dur is the injected per-operation latency (SlowIO only).
	Dur time.Duration
}

// Plan is a replayable storage-fault schedule.
type Plan struct {
	// Seed records the chaos-generator seed the plan came from (0 for
	// hand-written plans); provenance only.
	Seed   int64
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// The textual plan format, one comma-separated token per event, in the
// shape of the network grammar (kind[:cut]@OP[+N][~DUR]). The rank slot
// of the network grammar carries the surviving byte count of the
// partial-write kinds instead — a disk has no rank:
//
//	enospc@OP+N        N writes from write-op OP fail with ENOSPC
//	shortw:K@OP+N      matching writes persist only K bytes, then error
//	torn:K@OP+N        matching writes ack fully; only K bytes survive Crash
//	syncerr@OP+N       N fsyncs from sync-op OP fail (data stays volatile)
//	synclie@OP+N       N fsyncs ack without persisting (dropped on Crash)
//	corrupt@OP+N       N reads from read-op OP come back with a flipped bit
//	slow@OP+N~DUR      every op in [OP,OP+N) of the global counter stalls DUR
//
// Example: "enospc@2+1,torn:40@5,syncerr@0+2,slow@0+8~200us". This is
// the round-trip target of String (cmd/gbsoak draws its disk plans from
// Chaos instead, seeded by -seed and sized by -disk-events). Omitting :K
// on shortw/torn cuts at half the buffer.

// String renders the plan in the textual format accepted by Parse.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, 0, len(p.Events))
	for _, ev := range p.Events {
		parts = append(parts, ev.String())
	}
	return strings.Join(parts, ",")
}

// String renders one event token.
func (e Event) String() string {
	count := e.Count
	if count < 1 {
		count = 1
	}
	head := e.Kind.String()
	if (e.Kind == ShortWrite || e.Kind == TornWrite) && e.Cut >= 0 {
		head = fmt.Sprintf("%s:%d", head, e.Cut)
	}
	s := fmt.Sprintf("%s@%d+%d", head, e.AtOp, count)
	if e.Kind == SlowIO {
		s += "~" + e.Dur.String()
	}
	return s
}

// Parse reads a plan from the textual format. An empty string yields an
// empty plan; duplicate (kind, op) pairs are rejected as almost-always
// typos, mirroring fault.Parse.
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	type planKey struct {
		kind Kind
		atOp int64
	}
	seen := make(map[planKey]string)
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		ev, err := parseEvent(tok)
		if err != nil {
			return nil, err
		}
		key := planKey{kind: ev.Kind, atOp: ev.AtOp}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("fault/fs: duplicate %s plan at op %d: %q conflicts with earlier %q",
				ev.Kind, ev.AtOp, tok, prev)
		}
		seen[key] = tok
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

func parseEvent(tok string) (Event, error) {
	ev := Event{Cut: -1, Count: 1}
	head := tok
	if h, durStr, ok := strings.Cut(head, "~"); ok {
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault/fs: bad duration %q in token %q: %v", durStr, tok, err)
		}
		ev.Dur = d
		head = h
	}
	kindPart, opStr, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault/fs: missing @op in token %q", tok)
	}
	if opPart, countStr, hasCount := strings.Cut(opStr, "+"); hasCount {
		n, err := strconv.ParseInt(countStr, 10, 64)
		if err != nil || n < 1 {
			return Event{}, fmt.Errorf("fault/fs: bad count %q in token %q (want an integer >= 1)", countStr, tok)
		}
		ev.Count = n
		opStr = opPart
	}
	op, err := strconv.ParseInt(opStr, 10, 64)
	if err != nil || op < 0 {
		return Event{}, fmt.Errorf("fault/fs: bad op index %q in token %q (want an integer >= 0)", opStr, tok)
	}
	ev.AtOp = op

	kindStr, cutStr, hasCut := strings.Cut(kindPart, ":")
	switch kindStr {
	case "enospc":
		ev.Kind = ENOSPC
	case "shortw":
		ev.Kind = ShortWrite
	case "torn":
		ev.Kind = TornWrite
	case "syncerr":
		ev.Kind = SyncError
	case "synclie":
		ev.Kind = SyncLie
	case "corrupt":
		ev.Kind = CorruptRead
	case "slow":
		ev.Kind = SlowIO
	default:
		return Event{}, fmt.Errorf("fault/fs: unknown event kind %q in token %q (want enospc, shortw, torn, syncerr, synclie, corrupt, or slow)", kindStr, tok)
	}
	if hasCut {
		if ev.Kind != ShortWrite && ev.Kind != TornWrite {
			return Event{}, fmt.Errorf("fault/fs: byte cut %q not valid for %s in token %q", ":"+cutStr, ev.Kind, tok)
		}
		cut, err := strconv.Atoi(cutStr)
		if err != nil || cut < 0 {
			return Event{}, fmt.Errorf("fault/fs: bad byte cut %q in token %q (want an integer >= 0)", cutStr, tok)
		}
		ev.Cut = cut
	}
	if ev.Kind == SlowIO && ev.Dur <= 0 {
		return Event{}, fmt.Errorf("fault/fs: slow event needs a ~duration in token %q", tok)
	}
	if ev.Kind != SlowIO && ev.Dur != 0 {
		return Event{}, fmt.Errorf("fault/fs: duration %q only valid for slow in token %q", ev.Dur, tok)
	}
	return ev, nil
}

// Chaos generates a random-but-reproducible plan of n events across all
// seven kinds. Like fault.Chaos it biases toward recoverable windows:
// short count-bounded bursts early in each counter's life, so a retry
// discipline (DirStore's re-save, supervise's ladder) can earn its keep
// instead of the disk being uniformly dead.
func Chaos(seed int64, n int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	type planKey struct {
		kind Kind
		atOp int64
	}
	seen := make(map[planKey]bool)
	// The (kind, op) space is ~80 slots; bound the re-roll loop so an
	// oversized n degrades to a shorter plan instead of spinning.
	attempts := 0
	for i := 0; i < n && attempts < 64*n+1024; i++ {
		attempts++
		kind := Kind(rng.Intn(7))
		ev := Event{Kind: kind, Cut: -1}
		switch kind {
		case ENOSPC:
			ev.AtOp = int64(rng.Intn(12))
			ev.Count = int64(1 + rng.Intn(2))
		case ShortWrite:
			ev.AtOp = int64(rng.Intn(12))
			ev.Count = 1
			ev.Cut = rng.Intn(64)
		case TornWrite:
			ev.AtOp = int64(rng.Intn(12))
			ev.Count = 1
			ev.Cut = rng.Intn(64)
		case SyncError:
			ev.AtOp = int64(rng.Intn(8))
			ev.Count = int64(1 + rng.Intn(2))
		case SyncLie:
			ev.AtOp = int64(rng.Intn(8))
			ev.Count = 1
		case CorruptRead:
			ev.AtOp = int64(rng.Intn(10))
			ev.Count = int64(1 + rng.Intn(2))
		case SlowIO:
			ev.AtOp = int64(rng.Intn(6))
			ev.Count = int64(4 + rng.Intn(12))
			ev.Dur = time.Duration(20+rng.Intn(200)) * time.Microsecond
		}
		// Parse rejects duplicate (kind, op) pairs, so the generator
		// must not emit them: re-roll the colliding slot. The extra rng
		// draw is itself deterministic, so replay still holds.
		if seen[planKey{kind: ev.Kind, atOp: ev.AtOp}] {
			i--
			continue
		}
		seen[planKey{kind: ev.Kind, atOp: ev.AtOp}] = true
		p.Events = append(p.Events, ev)
	}
	return p
}
