package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestInjectorCrash(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: Crash, Rank: 1, AtOp: 2}}}
	in := p.NewInjector(4)
	for op := 0; op < 2; op++ {
		if act := in.Advance(1); act.Crash {
			t.Fatalf("crashed early at op %d", op)
		}
	}
	if act := in.Advance(1); !act.Crash {
		t.Fatal("no crash at op 2")
	}
	// Other ranks unaffected.
	for op := 0; op < 10; op++ {
		if act := in.Advance(0); act.Crash {
			t.Fatal("rank 0 crashed")
		}
	}
}

// TestCrashedBeforeFollowsOpClock pins the membership query to the
// asking rank's own op counter: a crash planned at op k is reported from
// the asker's op k+1 on, never before, whether or not the crashing rank
// has reached its op yet (here it never advances at all).
func TestCrashedBeforeFollowsOpClock(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Crash, Rank: 2, AtOp: 3},
		{Kind: Crash, Rank: 1, AtOp: 5},
		{Kind: Crash, Rank: 1, AtOp: 9}, // the earliest crash op counts
		{Kind: Straggle, Rank: 3, AtOp: 0, Count: 2},
	}}
	in := p.NewInjector(4)
	for next := 0; next <= 8; next++ {
		want := "[]"
		switch {
		case next > 5:
			want = "[1 2]"
		case next > 3:
			want = "[2]"
		}
		if got := fmt.Sprint(in.CrashedBefore(0)); got != want {
			t.Errorf("at op %d: CrashedBefore(0) = %s, want %s", next, got, want)
		}
		in.Advance(0)
	}
	if got := in.CrashedBefore(3); got != nil {
		t.Errorf("rank 3 has passed no op: CrashedBefore(3) = %v, want none", got)
	}
	var nilInj *Injector
	if got := nilInj.CrashedBefore(0); got != nil {
		t.Errorf("nil injector: CrashedBefore = %v", got)
	}
}

func TestInjectorDelayAndStraggle(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Straggle, Rank: 1, AtOp: 0, Count: 3, Dur: time.Microsecond},
		// A window whose end lies past MaxInt64 still fires from its start.
		{Kind: Straggle, Rank: 0, AtOp: 1, Count: math.MaxInt64, Dur: time.Millisecond},
	}}
	in := p.NewInjector(2)
	total := time.Duration(0)
	for op := 0; op < 5; op++ {
		total += in.Advance(1).Straggle
	}
	if total != 3*time.Microsecond {
		t.Errorf("straggle total = %v", total)
	}
	if d := in.Advance(0).Straggle; d != 0 {
		t.Errorf("max-count window fired before its start: %v", d)
	}
	for op := 1; op <= 10; op++ {
		if d := in.Advance(0).Straggle; d != time.Millisecond {
			t.Fatalf("max-count window from op 1: op %d stalled %v, want 1ms", op, d)
		}
	}
	if got := in.Stragglers(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Stragglers = %v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := "crash:1@6,corrupt:2@3+2,slow:0@1+3~150µs,slow:3@0+8~200µs,slow:1@1+9223372036854775807~1ms"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 5 {
		t.Fatalf("parsed %d events", len(p.Events))
	}
	if p.Events[4].Count != math.MaxInt64 {
		t.Errorf("max count: %+v", p.Events[4])
	}
	back, err := Parse(p.String())
	if err != nil {
		t.Fatalf("round-trip parse: %v (string %q)", err, p.String())
	}
	for i := range p.Events {
		if back.Events[i] != p.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, back.Events[i], p.Events[i])
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"boom:1@0", "crash:1", "crash:x@0", "drop:0>-2@0",
		"drop:0>2@0", "delay:0>*@1+1~1ms", // retired kinds
		"crash:1>2@0", // destination filters went with them
		"slow:1@0+4",  // straggler without a duration
		"crash:1@-3",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || !p.Empty() {
		t.Fatalf("empty parse: %v %+v", err, p)
	}
}

func TestChaosDeterministicAndBounded(t *testing.T) {
	a := Chaos(42, 8, 20)
	b := Chaos(42, 8, 20)
	if a.String() != b.String() {
		t.Fatal("chaos generator is not deterministic in seed")
	}
	if c := Chaos(43, 8, 20); c.String() == a.String() {
		t.Error("different seeds produced identical plans")
	}
	crashed := map[int]bool{}
	for _, ev := range a.Events {
		if ev.Kind == Crash {
			crashed[ev.Rank] = true
			if ev.Rank == 0 {
				t.Error("chaos crashed rank 0")
			}
		}
	}
	if len(crashed) > 3 { // (8-1)/2
		t.Errorf("chaos crashed %d of 8 ranks", len(crashed))
	}
}

func TestInjectorIgnoresOutOfRangeRanks(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: Crash, Rank: 9, AtOp: 0}}}
	in := p.NewInjector(2)
	if in.Advance(1).Crash {
		t.Error("out-of-range event applied")
	}
}

func TestInjectorCorrupt(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: Corrupt, Rank: 1, AtOp: 2, Count: 2}}}
	in := p.NewInjector(3)
	hits := 0
	for op := 0; op < 6; op++ {
		if in.Advance(1).Corrupt {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("corrupt fired %d times, want 2 (the Count window)", hits)
	}
	in2 := p.NewInjector(3)
	for op := 0; op < 6; op++ {
		if in2.Advance(0).Corrupt {
			t.Fatal("corrupt leaked to another rank")
		}
	}
}

func TestParseCorruptRoundTrip(t *testing.T) {
	p, err := Parse("corrupt:2@5+3")
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Events[0]
	if ev.Kind != Corrupt || ev.Rank != 2 || ev.AtOp != 5 || ev.Count != 3 {
		t.Fatalf("parsed %+v", ev)
	}
	back, err := Parse(p.String())
	if err != nil || back.Events[0] != ev {
		t.Fatalf("round trip: %v %+v", err, back)
	}
}

func TestParseErrorsNameTheToken(t *testing.T) {
	// Satellite contract: every parse error names the offending token so
	// a long -faults string is debuggable from the message alone.
	for _, tc := range []struct{ src, wantSub string }{
		{"crash:1@zz", `"crash:1@zz"`},
		{"boom:1@0", `"boom:1@0"`},
		{"crash:1>x@1", `"crash:1>x@1"`},
		{"crash:1>2@0", `"crash:1>2@0"`},
		{"crash:abc@0", `"crash:abc@0"`},
		{"slow:1@2+0~1ms", `"slow:1@2+0~1ms"`},
		{"slow:1@0+4~nope", `"slow:1@0+4~nope"`},
		{"drop:0>2@0", `"drop:0>2@0"`},
		{"delay:0>*@1+1~1ms", `"delay:0>*@1+1~1ms"`},
	} {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q does not name the token %s", tc.src, err, tc.wantSub)
		}
	}
	// A retired kind is refused with the kinds that remain.
	for _, src := range []string{"drop:0>2@0", "delay:0>*@1+1~1ms"} {
		_, err := Parse(src)
		if err == nil {
			continue // reported above
		}
		for _, kind := range []string{"crash", "slow", "corrupt"} {
			if !strings.Contains(err.Error(), kind) {
				t.Errorf("Parse(%q) error %q does not name the kind %s", src, err, kind)
			}
		}
	}
}

// TestParseRejectsUnprintedSuffixes: a suffix the kind does not take
// used to parse and then vanish from String ("crash:0@0+2" parsed to
// Count 2 and printed back as "crash:0@0"), so a plan was not a fixed
// point of Parse∘String. Each is now an error naming the token.
func TestParseRejectsUnprintedSuffixes(t *testing.T) {
	for _, src := range []string{
		"crash:0@0+2",
		"crash:1@4~1ms",
		"corrupt:2@5+3~1s",
		"crash:1@6,corrupt:2@3+2,crash:0@0+2",
	} {
		p, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) accepted: %v", src, p.String())
			continue
		}
		if p != nil {
			t.Errorf("Parse(%q) returned a plan with its error", src)
		}
		bad := src[strings.LastIndex(src, ",")+1:]
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("Parse(%q) error %q does not name the token %q", src, err, bad)
		}
	}
	// Slow keeps both suffixes.
	for _, ok := range []string{"slow:1@0+4~2ms"} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse(%q) rejected: %v", ok, err)
		}
	}
}

func TestParseRejectsDuplicatePlans(t *testing.T) {
	// Two events of the same kind for the same rank and op are a spec
	// bug, not a schedule: reject with both tokens named.
	if _, err := Parse("crash:1@4,crash:1@4"); err == nil {
		t.Error("duplicate crash accepted")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("error %q does not say duplicate", err)
	}
	if _, err := Parse("corrupt:0@3+1,corrupt:0@3+5"); err == nil {
		t.Error("duplicate corrupt (same rank/op, different count) accepted")
	}
	// Same op, different rank or kind: legal.
	for _, ok := range []string{
		"corrupt:0@3+1,corrupt:1@3+1",
		"crash:1@4,slow:1@4+2~1ms",
		"crash:1@4,crash:2@4",
	} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse(%q) rejected: %v", ok, err)
		}
	}
}

func TestChaosWithCorruption(t *testing.T) {
	a := ChaosWithCorruption(7, 6, 40)
	b := ChaosWithCorruption(7, 6, 40)
	if a.String() != b.String() {
		t.Fatal("ChaosWithCorruption is not deterministic in seed")
	}
	if Chaos(7, 6, 40).String() == a.String() {
		t.Error("corruption generator produced the plain chaos plan")
	}
	// Both generators draw only kinds that act on collective drivers:
	// Chaos crashes and stragglers, ChaosWithCorruption corruptions too.
	for seed := int64(1); seed <= 8; seed++ {
		for _, ev := range Chaos(seed, 6, 40).Events {
			if ev.Kind != Crash && ev.Kind != Straggle {
				t.Errorf("Chaos(%d) drew %s event %+v", seed, ev.Kind, ev)
			}
		}
		for _, ev := range ChaosWithCorruption(seed, 6, 40).Events {
			if ev.Kind != Crash && ev.Kind != Straggle && ev.Kind != Corrupt {
				t.Errorf("ChaosWithCorruption(%d) drew %s event %+v", seed, ev.Kind, ev)
			}
		}
	}
	sawCorrupt := false
	for _, ev := range a.Events {
		if ev.Kind == Corrupt {
			sawCorrupt = true
			if ev.Count < 1 {
				t.Errorf("corrupt event without a window: %+v", ev)
			}
		}
		if ev.Kind == Crash && ev.Rank == 0 {
			t.Error("chaos crashed rank 0")
		}
	}
	if !sawCorrupt {
		t.Error("40-event corruption chaos produced no corrupt events")
	}
}
