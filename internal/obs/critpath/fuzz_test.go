package critpath

import (
	"bytes"
	"testing"

	"gbpolar/internal/gb"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
)

// FuzzParseTrace: no input panics the trace ingester or the analyzer
// behind it, and a failed parse returns no runs. Seeds are the two formats
// a two-rank run exports: its Chrome trace and its obs JSON document.
func FuzzParseTrace(f *testing.F) {
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	rec.SetLabel("fuzz")
	rec.SetTrace(obs.TraceContext{TraceID: "t-fuzz", Job: "j-fuzz", Tenant: "acme", Attempt: 1})
	if _, err := buildSys(f, 100).Run(gb.RunSpec{Processes: 2, Obs: rec}); err != nil {
		f.Fatal(err)
	}
	var chrome, doc bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, rec); err != nil {
		f.Fatal(err)
	}
	if err := rec.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(chrome.Bytes())
	f.Add(doc.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := Parse(data)
		if err != nil {
			if len(runs) != 0 {
				t.Fatalf("failed parse (%v) returned %d runs", err, len(runs))
			}
			return
		}
		for _, run := range runs {
			Analyze(run, 0)
		}
	})
}
