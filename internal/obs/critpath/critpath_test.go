package critpath

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/surface"
)

func TestUnionLen(t *testing.T) {
	cases := []struct {
		ivs  []iv
		want int64
	}{
		{nil, 0},
		{[]iv{{0, 10}}, 10},
		{[]iv{{0, 10}, {5, 15}}, 15},
		{[]iv{{0, 10}, {20, 30}}, 20},
		{[]iv{{20, 30}, {0, 10}, {5, 25}}, 30},
		{[]iv{{0, 10}, {2, 8}}, 10},
	}
	for i, c := range cases {
		if got := unionLen(append([]iv{}, c.ivs...)); got != c.want {
			t.Errorf("case %d: unionLen = %d, want %d", i, got, c.want)
		}
	}
}

// synthetic two-rank run: rank 1 arrives last at the allreduce, so the
// critical path must route through rank 1's compute before the comm
// step and rank 0's compute after it.
func syntheticRun() Run {
	return Run{
		Label: "synthetic",
		Spans: []Span{
			{Rank: 0, Name: "rank", StartUs: 0, EndUs: 100, Parent: -1},
			{Rank: 1, Name: "rank", StartUs: 0, EndUs: 80, Parent: -1},
			{Rank: 0, Name: "born", StartUs: 10, EndUs: 60, Parent: 0},
			{Rank: 1, Name: "born", StartUs: 5, EndUs: 60, Parent: 1},
			{Rank: 0, Name: "comm:allreduce", StartUs: 50, EndUs: 60, Parent: 2, Seq: 1},
			{Rank: 1, Name: "comm:allreduce", StartUs: 55, EndUs: 60, Parent: 3, Seq: 1},
			{Rank: 0, Name: "epol", StartUs: 60, EndUs: 100, Parent: 0},
			{Rank: 1, Name: "epol", StartUs: 60, EndUs: 80, Parent: 1},
		},
	}
}

func TestAnalyzeSynthetic(t *testing.T) {
	rep := Analyze(syntheticRun(), 3)
	if rep.Ranks != 2 || rep.WallUs != 100 {
		t.Fatalf("ranks=%d wall=%d", rep.Ranks, rep.WallUs)
	}
	wantLanes := []RankLane{
		{Rank: 0, ComputeUs: 90, CommUs: 10, IdleUs: 0, SlackUs: 0},
		{Rank: 1, ComputeUs: 75, CommUs: 5, IdleUs: 20, SlackUs: 20},
	}
	for i, want := range wantLanes {
		if rep.PerRank[i] != want {
			t.Errorf("lane %d = %+v, want %+v", i, rep.PerRank[i], want)
		}
	}
	wantPath := []PathStep{
		{Rank: 1, Kind: "compute", Name: "compute", StartUs: 0, EndUs: 55},
		{Rank: 0, Kind: "comm", Name: "comm:allreduce", StartUs: 55, EndUs: 60, Seq: 1},
		{Rank: 0, Kind: "compute", Name: "compute", StartUs: 60, EndUs: 100},
	}
	if len(rep.Path) != len(wantPath) {
		t.Fatalf("path %+v", rep.Path)
	}
	for i, want := range wantPath {
		if rep.Path[i] != want {
			t.Errorf("step %d = %+v, want %+v", i, rep.Path[i], want)
		}
	}
	if rep.CritComputeUs != 95 || rep.CritCommUs != 5 || rep.CommFracPermille != 50 {
		t.Errorf("crit compute=%d comm=%d frac=%d", rep.CritComputeUs, rep.CritCommUs, rep.CommFracPermille)
	}
	wantCells := []PhaseCell{
		{Phase: "born", Rank: 0, ComputeUs: 40, CommUs: 10},
		{Phase: "born", Rank: 1, ComputeUs: 50, CommUs: 5},
		{Phase: "epol", Rank: 0, ComputeUs: 40, CommUs: 0},
		{Phase: "epol", Rank: 1, ComputeUs: 20, CommUs: 0},
	}
	if len(rep.Phases) != len(wantCells) {
		t.Fatalf("phases %+v", rep.Phases)
	}
	for i, want := range wantCells {
		if rep.Phases[i] != want {
			t.Errorf("cell %d = %+v, want %+v", i, rep.Phases[i], want)
		}
	}
	if len(rep.TopSpans) != 3 || rep.TopSpans[0].Name != "born" || rep.TopSpans[0].DurUs != 55 {
		t.Errorf("top spans %+v", rep.TopSpans)
	}
	if rep.CommRounds["comm:allreduce"] != 1 {
		t.Errorf("comm rounds %+v", rep.CommRounds)
	}
}

func TestAnalyzeEmptyAndSingleRank(t *testing.T) {
	rep := Analyze(Run{}, 0)
	if rep.Ranks != 0 || rep.WallUs != 0 || len(rep.Path) != 0 {
		t.Errorf("empty run: %+v", rep)
	}
	rep = Analyze(Run{Spans: []Span{
		{Rank: 0, Name: "rank", StartUs: 0, EndUs: 40, Parent: -1},
		{Rank: 0, Name: "born", StartUs: 0, EndUs: 40, Parent: 0},
	}}, 0)
	if rep.WallUs != 40 || rep.PerRank[0].ComputeUs != 40 || rep.CommFracPermille != 0 {
		t.Errorf("single rank: %+v", rep)
	}
	if len(rep.Path) != 1 || rep.Path[0].Kind != "compute" {
		t.Errorf("single-rank path: %+v", rep.Path)
	}
}

func buildSys(t testing.TB, n int) *gb.System {
	t.Helper()
	m := molecule.Globule("critpath", n, 7)
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := gb.NewSystem(m, surf, gb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fourRankRun(t *testing.T, label string) Run {
	t.Helper()
	s := buildSys(t, 400)
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	rec.SetLabel(label)
	if _, err := s.Run(gb.RunSpec{Processes: 4, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	return FromRecorder(rec)
}

// TestAttributionSumsRealRun is the acceptance criterion: for a
// chaos-free 4-rank run, compute + comm + idle per rank accounts for
// the full measured wall time (exactly, which is trivially ≥ 99%).
func TestAttributionSumsRealRun(t *testing.T) {
	run := fourRankRun(t, "four-ranks")
	rep := Analyze(run, 5)
	if rep.Ranks != 4 {
		t.Fatalf("ranks = %d", rep.Ranks)
	}
	if rep.WallUs <= 0 {
		t.Fatalf("wall = %d", rep.WallUs)
	}
	for _, lane := range rep.PerRank {
		sum := lane.ComputeUs + lane.CommUs + lane.IdleUs
		if sum != rep.WallUs {
			t.Errorf("rank %d attribution %d != wall %d", lane.Rank, sum, rep.WallUs)
		}
		if lane.ComputeUs < 0 || lane.CommUs < 0 || lane.IdleUs < 0 || lane.SlackUs < 0 {
			t.Errorf("rank %d negative attribution: %+v", lane.Rank, lane)
		}
	}
	if len(rep.Path) == 0 {
		t.Error("empty critical path")
	}
	if rep.CommFracPermille < 0 || rep.CommFracPermille > 1000 {
		t.Errorf("comm_frac %d out of range", rep.CommFracPermille)
	}
	// Real collectives ran, sequenced by simmpi.
	if rep.CommRounds["comm:allreduce"] == 0 {
		t.Errorf("no sequenced allreduce rounds: %+v", rep.CommRounds)
	}
}

// TestDetReportByteIdentical: the structure view of two same-seed
// crash-free runs renders byte-identical even though their wall
// timings differ.
func TestDetReportByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteText(&a, Analyze(fourRankRun(t, "det"), 5), true); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&b, Analyze(fourRankRun(t, "det"), 5), true); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("det reports differ:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
	if a.Len() == 0 {
		t.Fatal("empty det report")
	}
}

// TestChromeRoundTrip: exporting a real run to the Chrome trace format
// and re-ingesting it must preserve the span forest — same structure
// view, same per-rank attribution sums.
func TestChromeRoundTrip(t *testing.T) {
	s := buildSys(t, 300)
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	rec.SetLabel("roundtrip")
	rec.SetTrace(obs.TraceContext{TraceID: "t-rt", Job: "j-rt", Tenant: "acme", Attempt: 1})
	if _, err := s.Run(gb.RunSpec{Processes: 3, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	direct := Analyze(FromRecorder(rec), 5)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	runs, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	if runs[0].Trace.TraceID != "t-rt" || runs[0].Trace.Tenant != "acme" {
		t.Errorf("trace identity lost: %+v", runs[0].Trace)
	}
	ingested := Analyze(runs[0], 5)
	if ingested.Ranks != direct.Ranks {
		t.Errorf("ranks %d != %d", ingested.Ranks, direct.Ranks)
	}
	if len(ingested.SpanCounts) != len(direct.SpanCounts) {
		t.Errorf("span counts differ: %+v vs %+v", ingested.SpanCounts, direct.SpanCounts)
	}
	for name, n := range direct.SpanCounts {
		if ingested.SpanCounts[name] != n {
			t.Errorf("span count %s: %d != %d", name, ingested.SpanCounts[name], n)
		}
	}
	for i, lane := range ingested.PerRank {
		if sum := lane.ComputeUs + lane.CommUs + lane.IdleUs; sum != ingested.WallUs {
			t.Errorf("ingested rank %d attribution %d != wall %d", i, sum, ingested.WallUs)
		}
	}
	// Same structure text, bit for bit.
	var dtxt, itxt bytes.Buffer
	if err := WriteText(&dtxt, direct, true); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&itxt, ingested, true); err != nil {
		t.Fatal(err)
	}
	if dtxt.String() != itxt.String() {
		t.Errorf("structure views differ:\n--- direct ---\n%s--- ingested ---\n%s", dtxt.String(), itxt.String())
	}
}

func TestParseObsJSON(t *testing.T) {
	rec := obs.NewRecorder(func() time.Duration { return 0 })
	rec.SetLabel("json-run")
	rec.SetTrace(obs.TraceContext{TraceID: "t-js"})
	rec.StartSpanSeq(0, "comm:barrier", 1).End()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	runs, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Label != "json-run" || runs[0].Trace.TraceID != "t-js" {
		t.Fatalf("runs: %+v", runs)
	}
	if len(runs[0].Spans) != 1 || runs[0].Spans[0].Seq != 1 {
		t.Errorf("spans: %+v", runs[0].Spans)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte(`[1,2,3]`)); err == nil {
		t.Error("array accepted")
	}
	if _, err := Parse([]byte(`{"nope": 1}`)); err == nil {
		t.Error("unknown document accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
}

func TestReportJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Analyze(syntheticRun(), 3)); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ranks", "wall_us", "per_rank", "phases",
		"critical_path", "comm_frac_permille", "top_spans", "phase_order",
		"comm_rounds", "span_counts"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report JSON lacks %q", key)
		}
	}
}

func TestPublishGauges(t *testing.T) {
	rec := obs.NewRecorder(nil)
	PublishGauges(rec, Analyze(syntheticRun(), 3))
	g := rec.Gauges()
	if g["critpath.comm_frac"] != 50 {
		t.Errorf("comm_frac gauge = %d", g["critpath.comm_frac"])
	}
	if g["critpath.slack_us.rank1"] != 20 {
		t.Errorf("slack gauge = %d", g["critpath.slack_us.rank1"])
	}
	PublishGauges(nil, Report{}) // must not panic
}
