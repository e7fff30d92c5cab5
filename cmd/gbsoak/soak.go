package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"gbpolar/internal/fault"
	faultfs "gbpolar/internal/fault/fs"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/serve"
	"gbpolar/internal/supervise"
	"gbpolar/internal/surface"
)

// The soak runs the serving daemon core in-process, generation after
// generation, over a seeded fault-injecting filesystem:
//
//	incarnation 0   fresh disk + disk-fault plan 0; submit jobs; kill
//	incarnation 1   crash-surviving state + plan 1; resume; drain
//	...             kill and drain alternate
//	incarnation N   healed disk; resume; run everything to completion
//
// Two job classes share each incarnation. "Bitwise" jobs see only disk
// faults and crashes — their non-degraded results must match the clean
// oracle bit for bit. "Chaos" jobs additionally get network fault plans
// (rank crash/straggle) on their first attempt — their
// results must be within the priced error bound. The memory gate is
// exercised by a deliberately oversized probe (413) and by the shared
// budget; a shrunk job is visible in its result and exempted from the
// bitwise check.

type jobClass int

const (
	classBitwise jobClass = iota
	classChaos
)

// options configures one soak run. Every run with the same options and
// seed draws the same fault plans.
type options struct {
	seed       int64
	rounds     int // crash/drain cycles before the final healed incarnation
	bitJobs    int // bitwise-checked jobs across all rounds
	chaosJobs  int // network-chaos jobs across all rounds
	atoms      int // bitwise-job molecule size
	chaosAtoms int // chaos-job molecule size
	procs      int // requested process layout
	diskEvents int // disk fault events per incarnation plan
	memBudget  int64
	ckptDelay  time.Duration // widens the mid-run kill window
	wait       time.Duration // final-incarnation completion deadline
	strict     bool          // require at least one bit-verified job
	logf       func(format string, args ...any)
}

// report is the soak's outcome: counters for the summary line, evidence
// for the failure bundle, and the violations that decide the exit code.
type report struct {
	Seed        int64             `json:"seed"`
	Acked       int               `json:"acked"`
	Rejected    map[string]int    `json:"rejected"`
	Resumed     int               `json:"resumed"`
	BitVerified int               `json:"bit_verified"`
	Shrunk      int               `json:"shrunk"`
	Degraded    int               `json:"degraded"`
	Failed      int               `json:"failed"`
	Invisible   int               `json:"invisible_restarts"`
	LieLosses   []string          `json:"lie_losses,omitempty"`
	DiskStats   faultfs.Stats     `json:"disk_stats"`
	Counters    map[string]int64  `json:"counters,omitempty"`
	Views       map[string]string `json:"views,omitempty"`
	Violations  []string          `json:"violations,omitempty"`
}

// do drives the daemon's HTTP handler without a socket.
func do(h http.Handler, method, path string, body []byte) (int, []byte) {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, strings.NewReader(string(body)))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func molSpec(m *molecule.Molecule) serve.MoleculeSpec {
	spec := serve.MoleculeSpec{Name: m.Name, Atoms: make([]serve.AtomSpec, len(m.Atoms))}
	for i, a := range m.Atoms {
		spec.Atoms[i] = serve.AtomSpec{X: a.Pos.X, Y: a.Pos.Y, Z: a.Pos.Z,
			Radius: a.Radius, Charge: a.Charge}
	}
	return spec
}

// oracleRun computes the clean reference outcome on a fault-free,
// storage-free run at the soak's requested layout.
func oracleRun(m *molecule.Molecule, procs int) (*supervise.Outcome, error) {
	surf, err := surface.Build(m, surface.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("building oracle surface: %w", err)
	}
	sys, err := gb.NewSystem(m, surf, gb.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("building oracle system: %w", err)
	}
	return supervise.Run(sys, supervise.Spec{Processes: procs})
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// split spreads n submissions across rounds so every incarnation admits
// fresh work alongside the jobs it resumed.
func split(n, rounds int) []int {
	out := make([]int, rounds)
	for i := 0; i < n; i++ {
		out[i%rounds]++
	}
	return out
}

// soak runs the full scenario and returns its report; the run failed
// iff the report carries violations.
func soak(o options) *report {
	logf := o.logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &report{Seed: o.seed, Rejected: map[string]int{}, Views: map[string]string{}}
	violate := func(format string, args ...any) {
		v := fmt.Sprintf(format, args...)
		rep.Violations = append(rep.Violations, v)
		logf("VIOLATION: %s", v)
	}
	baseline := runtime.NumGoroutine()

	// The clean oracles. If even a fault-free run fails, soak results
	// would be meaningless — bail out as a violation.
	bitMol := molecule.Exactly(molecule.Globule("soak-bit", o.atoms, o.seed), o.atoms, o.seed)
	chaosMol := molecule.Exactly(molecule.Globule("soak-chaos", o.chaosAtoms, o.seed+1), o.chaosAtoms, o.seed+1)
	bitRef, err := oracleRun(bitMol, o.procs)
	if err != nil {
		violate("clean bitwise oracle failed: %v", err)
		return rep
	}
	chaosRef, err := oracleRun(chaosMol, o.procs)
	if err != nil {
		violate("clean chaos oracle failed: %v", err)
		return rep
	}
	wantBits := bitsOf(bitRef.Result.Epol)
	logf("oracle: bitwise Epol bits %s (%d atoms, P=%d), chaos Epol %.9g",
		wantBits, o.atoms, o.procs, chaosRef.Result.Epol)

	diskPlan := func(r int) *faultfs.Plan { return faultfs.Chaos(o.seed*7919+int64(r), o.diskEvents) }

	// Job classing is shared mutable state between the submitter and the
	// server's PlanFor hook (called from worker goroutines).
	var mu sync.Mutex
	class := map[string]jobClass{}
	var acked []string
	planFor := func(jobID string, attempt int) *fault.Plan {
		mu.Lock()
		c, ok := class[jobID]
		mu.Unlock()
		if !ok || c != classChaos || attempt > 1 {
			// Bitwise jobs and every retry attempt run fault-free: the
			// ladder's retry rung resumes the same configuration, keeping
			// completed chaos jobs inside their priced bounds.
			return nil
		}
		h := fnv.New64a()
		h.Write([]byte(jobID))
		return fault.Chaos(int64(h.Sum64()%100000)+o.seed, o.procs, 2)
	}

	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	ffs := faultfs.NewFaultFS(diskPlan(0))
	liedPaths := map[string]bool{}
	// harvestLies snapshots the fsync lies of the dying incarnation's
	// disk — a job lost to a lied-about job.json is the disk's fault, by
	// construction, and the loss invariant exempts exactly those.
	harvestLies := func() {
		for _, p := range ffs.Lied() {
			liedPaths[p] = true
		}
	}
	// addStats folds a dying incarnation's disk counters into the report
	// (Crash returns a fresh disk with zeroed counters).
	addStats := func() {
		s := ffs.Stats()
		d := &rep.DiskStats
		d.Writes += s.Writes
		d.Syncs += s.Syncs
		d.Reads += s.Reads
		d.Ops += s.Ops
		d.Enospc += s.Enospc
		d.ShortWrites += s.ShortWrites
		d.TornWrites += s.TornWrites
		d.SyncErrors += s.SyncErrors
		d.SyncLies += s.SyncLies
		d.CorruptReads += s.CorruptReads
		d.SlowOps += s.SlowOps
	}

	newServer := func() (*serve.Server, error) {
		return serve.New(serve.Config{
			DataDir:          "data",
			QueueDepth:       o.bitJobs + o.chaosJobs + 4,
			Workers:          2,
			DefaultProcesses: o.procs,
			MemBudgetBytes:   o.memBudget,
			FS:               ffs,
			PlanFor:          planFor,
			CheckpointDelay:  o.ckptDelay,
			Obs:              rec,
		})
	}

	submit := func(h http.Handler, m *molecule.Molecule, c jobClass, req serve.JobRequest) {
		req.Molecule = molSpec(m)
		body, err := json.Marshal(req)
		if err != nil {
			violate("encoding request: %v", err)
			return
		}
		code, data := do(h, http.MethodPost, "/v1/jobs", body)
		if code == http.StatusAccepted {
			var v serve.JobView
			if json.Unmarshal(data, &v) != nil || v.ID == "" {
				violate("202 without a job view: %s", data)
				return
			}
			mu.Lock()
			class[v.ID] = c
			acked = append(acked, v.ID)
			mu.Unlock()
			rep.Acked++
			return
		}
		var doc struct {
			Error serve.ErrorDoc `json:"error"`
		}
		if json.Unmarshal(data, &doc) != nil || doc.Error.Code == "" {
			violate("status %d without a typed error envelope: %s", code, data)
			return
		}
		rep.Rejected[doc.Error.Code]++
	}

	getView := func(h http.Handler, id string) (serve.JobView, int) {
		code, data := do(h, http.MethodGet, "/v1/jobs/"+id, nil)
		var v serve.JobView
		if code == http.StatusOK {
			if json.Unmarshal(data, &v) != nil {
				violate("job %s: 200 with undecodable view: %s", id, data)
			}
		}
		return v, code
	}

	bitPerRound := split(o.bitJobs, o.rounds)
	chaosPerRound := split(o.chaosJobs, o.rounds)
	queueCap := o.bitJobs + o.chaosJobs + 4

	for r := 0; r <= o.rounds; r++ {
		final := r == o.rounds
		if final {
			// The last incarnation runs on a healed disk: whatever the
			// chaos left durable must carry every acked job to the finish.
			harvestLies()
			addStats()
			ffs = ffs.Crash(nil)
		}
		srv, err := newServer()
		if err != nil {
			violate("incarnation %d: starting daemon: %v", r, err)
			return rep
		}
		h := srv.Handler()
		rep.Resumed += srv.ResumedJobs()
		logf("incarnation %d: resumed %d job(s), disk plan %q", r, srv.ResumedJobs(), ffs.Plan().String())

		// Durability invariant: every acked job must still be known.
		// Mid-chaos incarnations tolerate transient invisibility (a
		// corrupt-on-read during the startup scan); the healed final
		// incarnation tolerates only losses pinned on a lying fsync.
		mu.Lock()
		known := append([]string(nil), acked...)
		mu.Unlock()
		for _, id := range known {
			if _, code := getView(h, id); code != http.StatusOK {
				jobJSON := "data/" + id + "/job.json"
				switch {
				case liedPaths[jobJSON]:
					rep.LieLosses = append(rep.LieLosses, id)
					logf("incarnation %d: job %s lost to a lying fsync of %s (exempt)", r, id, jobJSON)
				case !final:
					rep.Invisible++
					logf("incarnation %d: job %s temporarily invisible (transient read fault)", r, id)
				default:
					violate("acked job %s lost: unknown to the healed final incarnation", id)
				}
			}
		}

		if !final {
			for i := 0; i < bitPerRound[r]; i++ {
				submit(h, bitMol, classBitwise, serve.JobRequest{Processes: o.procs, Seed: o.seed + int64(r*100+i)})
			}
			for i := 0; i < chaosPerRound[r]; i++ {
				submit(h, chaosMol, classChaos, serve.JobRequest{Processes: o.procs, Seed: o.seed + int64(r*100+50+i)})
			}
		}
		if r == 0 {
			// Memory-gate probe: a molecule whose modeled footprint
			// exceeds the whole budget at any layout must draw a typed
			// 413, never an admission.
			big := int(o.memBudget/perf.EstimateDataBytes(1, 60)) + 2
			for perf.EstimateDataBytes(big, 60*big) <= o.memBudget {
				big *= 2
			}
			if big > 20000 {
				logf("skipping 413 probe: budget too large for the default atom cap")
			} else {
				bigMol := molecule.Exactly(molecule.Globule("soak-413", big, o.seed+2), big, o.seed+2)
				body, err := json.Marshal(serve.JobRequest{Molecule: molSpec(bigMol)})
				if err != nil {
					violate("encoding 413 probe: %v", err)
				} else if code, data := do(h, http.MethodPost, "/v1/jobs", body); code != http.StatusRequestEntityTooLarge {
					violate("oversized probe (%d atoms): got status %d, want 413: %s", big, code, data)
				} else {
					rep.Rejected[serve.CodeTooLarge]++
				}
			}
		}
		srv.Start()

		if final {
			deadline := time.Now().Add(o.wait)
			for _, id := range known {
				if liedLoss(rep, id) {
					continue
				}
				for {
					v, code := getView(h, id)
					if code == http.StatusOK &&
						(v.State == serve.StateDone || v.State == serve.StateFailed) {
						recordTerminal(rep, violate, id, classOf(&mu, class, id), v, wantBits, bitRef, chaosRef)
						break
					}
					if qd := srv.QueueDepth(); qd > queueCap+rep.Resumed {
						violate("queue depth %d exceeds bound %d", qd, queueCap+rep.Resumed)
					}
					if time.Now().After(deadline) {
						violate("job %s never reached a terminal state (last: %q, http %d)", id, v.State, code)
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			srv.Drain()
			break
		}

		// Let the incarnation make real progress before it dies: wait
		// for one of this round's jobs to finish, bounded so a stuck
		// incarnation cannot stall the soak.
		progress := time.Now().Add(o.wait / 4)
		for time.Now().Before(progress) {
			doneNow := 0
			mu.Lock()
			ids := append([]string(nil), acked...)
			mu.Unlock()
			for _, id := range ids {
				if v, code := getView(h, id); code == http.StatusOK &&
					(v.State == serve.StateDone || v.State == serve.StateFailed) {
					doneNow++
				}
			}
			if doneNow > r {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}

		if r%2 == 0 {
			// Kill: snapshot the durable state first — everything the
			// dying incarnation writes afterwards lands on a discarded
			// disk, exactly like a power cut mid-write.
			harvestLies()
			next := ffs.Crash(diskPlan(r + 1))
			srv.Drain()
			addStats()
			ffs = next
			logf("incarnation %d: killed (crash snapshot taken mid-run)", r)
		} else {
			// Drain, then lose power anyway: a graceful shutdown's
			// durable state must survive the same crash.
			srv.Drain()
			harvestLies()
			addStats()
			ffs = ffs.Crash(diskPlan(r + 1))
			logf("incarnation %d: drained, then power lost", r)
		}
	}

	if o.strict && rep.BitVerified == 0 && len(rep.Violations) == 0 {
		violate("no job completed cleanly enough to bit-verify against the oracle (%d acked)", rep.Acked)
	}

	// Goroutine settle: every incarnation was drained; nothing may leak.
	settle := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(settle) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			violate("goroutines leaked: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	addStats()
	rep.Counters = rec.Counters()
	return rep
}

func liedLoss(rep *report, id string) bool {
	for _, l := range rep.LieLosses {
		if l == id {
			return true
		}
	}
	return false
}

func classOf(mu *sync.Mutex, class map[string]jobClass, id string) jobClass {
	mu.Lock()
	defer mu.Unlock()
	return class[id]
}

// recordTerminal applies the terminal-state invariants to one job.
func recordTerminal(rep *report, violate func(string, ...any), id string, c jobClass,
	v serve.JobView, wantBits string, bitRef, chaosRef *supervise.Outcome) {
	rep.Views[id] = v.State
	switch v.State {
	case serve.StateDone:
		res := v.Result
		if res == nil {
			violate("job %s done without a result", id)
			return
		}
		ref := bitRef
		if c == classChaos {
			ref = chaosRef
		}
		if c == classBitwise && !res.Degraded && res.ShrunkProcesses == 0 {
			// The heart of the soak: a job that saw only disk faults and
			// crash/resume cycles must land on the oracle bit for bit.
			if res.EpolBits != wantBits {
				violate("job %s: Epol bits %s differ from clean oracle %s", id, res.EpolBits, wantBits)
				return
			}
			rep.BitVerified++
			return
		}
		if res.ShrunkProcesses > 0 {
			rep.Shrunk++
		}
		diff := math.Abs(res.Epol - ref.Result.Epol)
		if res.Degraded {
			rep.Degraded++
			if res.ErrorBound > 0 {
				if diff > res.ErrorBound {
					violate("job %s: degraded |Δ|=%g outside its bound %g", id, diff, res.ErrorBound)
				}
			} else if diff > 1e-9*math.Abs(ref.Result.Epol) {
				violate("job %s: zero-bound degraded Epol off by %g", id, diff)
			}
			return
		}
		if diff > 1e-9*math.Abs(ref.Result.Epol) {
			violate("job %s: non-degraded Epol %v vs reference %v (|Δ|=%g)", id, res.Epol, ref.Result.Epol, diff)
		}
	case serve.StateFailed:
		rep.Failed++
		if v.Error == nil || v.Error.Code == "" {
			violate("job %s failed without a typed error", id)
		}
	default:
		violate("job %s in non-terminal state %q at soak end", id, v.State)
	}
}
