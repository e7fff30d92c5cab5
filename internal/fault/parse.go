package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The textual plan format, one comma-separated token per event:
//
//	crash:R@OP          rank R crashes at its OP-th communication op
//	slow:R@OP+N~DUR     rank R stalls DUR on every op in [OP, OP+N)
//	corrupt:R@OP+N      R's payloads bit-flipped in transit for N ops from OP
//
// Example: "crash:1@6,corrupt:2@3+2,slow:3@0+8~200us". This is the syntax
// of cmd/clustersim's -faults flag and the round-trip target of String.

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
	switch e.Kind {
	case Crash:
		return fmt.Sprintf("crash:%d@%d", e.Rank, e.AtOp)
	case Straggle:
		return fmt.Sprintf("slow:%d@%d+%d~%s", e.Rank, e.AtOp, count, e.Dur)
	case Corrupt:
		return fmt.Sprintf("corrupt:%d@%d+%d", e.Rank, e.AtOp, count)
	}
	return "unknown"
}

// Parse reads a plan from the textual format. An empty string yields an
// empty plan. Two events of the same kind on the same rank and starting
// op are rejected: a duplicate is almost always a typo'd
// plan, and silently letting the last token win (the pre-PR-5 behavior)
// hid exactly that class of mistake.
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	type planKey struct {
		kind Kind
		rank int
		atOp int64
	}
	seen := make(map[planKey]string)
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		ev, err := parseEvent(tok)
		if err != nil {
			return nil, err
		}
		key := planKey{kind: ev.Kind, rank: ev.Rank, atOp: ev.AtOp}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("fault: duplicate %s plan for rank %d at op %d: %q conflicts with earlier %q",
				ev.Kind, ev.Rank, ev.AtOp, tok, prev)
		}
		seen[key] = tok
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

func parseEvent(tok string) (Event, error) {
	kindStr, rest, ok := strings.Cut(tok, ":")
	if !ok {
		return Event{}, fmt.Errorf("fault: malformed event %q (want kind:spec)", tok)
	}
	ev := Event{Count: 1}
	switch kindStr {
	case "crash":
		ev.Kind = Crash
	case "slow":
		ev.Kind = Straggle
	case "corrupt":
		ev.Kind = Corrupt
	default:
		return Event{}, fmt.Errorf("fault: unknown event kind %q in token %q (want crash, slow, or corrupt)", kindStr, tok)
	}

	// Split off ~DUR first, then +COUNT, then @OP; what remains is the
	// rank. A suffix the kind does not take is rejected: String could not
	// print it back.
	if head, durStr, ok := strings.Cut(rest, "~"); ok {
		if ev.Kind != Straggle {
			return Event{}, fmt.Errorf("fault: duration %q not valid for %s in token %q (only slow takes ~DUR)", "~"+durStr, ev.Kind, tok)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad duration %q in token %q: %v", durStr, tok, err)
		}
		ev.Dur = d
		rest = head
	}
	head, opStr, ok := strings.Cut(rest, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: missing @op in token %q", tok)
	}
	if opPart, countStr, hasCount := strings.Cut(opStr, "+"); hasCount {
		if ev.Kind == Crash {
			return Event{}, fmt.Errorf("fault: count %q not valid for crash in token %q (a rank crashes once)", "+"+countStr, tok)
		}
		n, err := strconv.ParseInt(countStr, 10, 64)
		if err != nil || n < 1 {
			return Event{}, fmt.Errorf("fault: bad count %q in token %q (want an integer ≥ 1)", countStr, tok)
		}
		ev.Count = n
		opStr = opPart
	}
	op, err := strconv.ParseInt(opStr, 10, 64)
	if err != nil || op < 0 {
		return Event{}, fmt.Errorf("fault: bad op index %q in token %q (want an integer ≥ 0)", opStr, tok)
	}
	ev.AtOp = op

	rank, err := strconv.Atoi(head)
	if err != nil || rank < 0 {
		return Event{}, fmt.Errorf("fault: bad rank %q in token %q (want an integer ≥ 0)", head, tok)
	}
	ev.Rank = rank
	if ev.Kind == Straggle && ev.Dur <= 0 {
		return Event{}, fmt.Errorf("fault: %s event needs a ~duration in token %q", ev.Kind, tok)
	}
	return ev, nil
}
