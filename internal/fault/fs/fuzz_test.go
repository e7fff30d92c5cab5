package fs

import (
	"reflect"
	"testing"
)

// FuzzParsePlan fuzzes the -disk-faults plan grammar. No input may panic,
// a failed parse returns no plan, and a parsed plan is a fixed point:
// Parse(p.String()) yields the same events.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"enospc@2+1",
		"shortw:12@0+1",
		"torn:40@5+1",
		"syncerr@0+2",
		"synclie@3+1",
		"corrupt@1+2",
		"slow@0+8~200µs",
		"enospc@2+1,torn:40@5+1,syncerr@0+2,slow@0+8~200µs",
		"torn@3",
		"enospc@0~1ms",
	} {
		f.Add(s)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(Chaos(seed, 6).String())
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
