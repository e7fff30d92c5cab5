package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan fuzzes the -faults plan grammar. No input may panic, a
// failed parse returns no plan, and a parsed plan is a fixed point:
// Parse(p.String()) yields the same events.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"crash:1@6,corrupt:2@3+2,slow:0@1+3~150µs,slow:3@0+8~200µs",
		"corrupt:2@5+3",
		"corrupt:0@3+1,corrupt:1@3+1",
		"crash:1@4,slow:1@4+2~1ms",
		"crash:0@0+2", // a count on crash used to parse and vanish from String
	} {
		f.Add(s)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(Chaos(seed, 4, 8).String())
		f.Add(ChaosWithCorruption(seed, 5, 10).String())
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned a plan with error %v", s, err)
			}
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(back.Events, p.Events) {
			t.Fatalf("Parse(%q) = %#v, but its rendering %q parses to %#v", s, p.Events, p.String(), back.Events)
		}
	})
}
