package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"gbpolar/internal/fault/fs"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/critpath"
	"gbpolar/internal/perf"
	"gbpolar/internal/serve"
	"gbpolar/internal/simmpi"
	"gbpolar/internal/surface"
	"gbpolar/internal/tune"
)

// serve-closed drives an in-process serve.Server with one worker through
// its HTTP handler, without sockets: one client in a closed loop POSTs a
// job, then polls it until it is terminal. It is the only workload on the
// admission → durable ack → supervised run → result path, where serve,
// supervise, fs, obs and tune do their work. Requests are globules of
// 500–1500 atoms at two processes, and one in four carries a target
// error, so the tuner runs too. The data directory sits on an honest
// in-memory disk: the full temp+write+fsync+rename path runs, without the
// host disk's jitter. The self-test uses 150- and 250-atom globules.
var (
	servePoolAtoms  = []int{500, 833, 1167, 1500}
	serveShortAtoms = []int{150, 250}
)

const (
	// serveTargetKcal is the error budget of the tuned requests.
	serveTargetKcal = 1.0
	// serveDataDir is the server's data directory on the in-memory disk.
	serveDataDir = "data"
	// serveJobTimeout bounds one job; no job of the mix comes near it.
	serveJobTimeout = 2 * time.Minute
)

// serveItem is one request of the mix.
type serveItem struct {
	mol   *molecule.Molecule
	tuned bool
	body  []byte
}

// serveRequests builds the mix: every globule three times at the default
// accuracy and once with a target error.
func serveRequests(sizes []int) ([]serveItem, error) {
	var items []serveItem
	for _, n := range sizes {
		mol := molecule.Exactly(molecule.Globule(fmt.Sprintf("globule-%d", n), n, int64(n)), n, int64(n))
		spec := serve.MoleculeSpec{Name: mol.Name, Atoms: make([]serve.AtomSpec, n)}
		for i, a := range mol.Atoms {
			spec.Atoms[i] = serve.AtomSpec{X: a.Pos.X, Y: a.Pos.Y, Z: a.Pos.Z, Radius: a.Radius, Charge: a.Charge}
		}
		for k := 0; k < 4; k++ {
			req := serve.JobRequest{Molecule: spec, Processes: 2}
			tuned := k == 3
			if tuned {
				req.TargetErrorKcal = serveTargetKcal
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			items = append(items, serveItem{mol: mol, tuned: tuned, body: body})
		}
	}
	return items, nil
}

// serveStack is one started server over its own in-memory disk.
type serveStack struct {
	srv  *serve.Server
	h    http.Handler
	disk *fs.FaultFS
	cfs  *countingFS
}

func startServe(rec *obs.Recorder) (*serveStack, error) {
	disk := fs.NewFaultFS(nil)
	cfs := &countingFS{inner: disk}
	srv, err := serve.New(serve.Config{DataDir: serveDataDir, FS: cfs, Workers: 1, Obs: rec})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &serveStack{srv: srv, h: srv.Handler(), disk: disk, cfs: cfs}, nil
}

// call serves one request through the handler, in process.
func (st *serveStack) call(method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	st.h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// jobTimes is one job as its client saw it, in raw ms: from the POST to
// the 202, then queued until first seen running, then running until
// first seen terminal.
type jobTimes struct{ ack, queue, run float64 }

// do runs one closed-loop job. The poll interval is a 500th of the time
// waited so far, at least 50 µs: under 0.2 % of the job's latency,
// without spinning through a long job.
func (st *serveStack) do(body []byte) (serve.JobView, jobTimes, error) {
	var jt jobTimes
	var view serve.JobView
	t0 := time.Now()
	code, data := st.call(http.MethodPost, "/v1/jobs", body)
	jt.ack = ms(time.Since(t0))
	if code != http.StatusAccepted {
		return view, jt, fmt.Errorf("POST /v1/jobs: status %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return view, jt, fmt.Errorf("decoding the ack: %w", err)
	}
	var running time.Time
	for {
		waited := time.Since(t0)
		if waited > serveJobTimeout {
			return view, jt, fmt.Errorf("job %s not terminal after %v", view.ID, waited)
		}
		time.Sleep(max(waited/500, 50*time.Microsecond))
		code, data := st.call(http.MethodGet, "/v1/jobs/"+view.ID, nil)
		now := time.Now()
		if code != http.StatusOK {
			return view, jt, fmt.Errorf("GET job %s: status %d: %s", view.ID, code, data)
		}
		if err := json.Unmarshal(data, &view); err != nil {
			return view, jt, fmt.Errorf("decoding job %s: %w", view.ID, err)
		}
		if view.State == serve.StateQueued {
			continue
		}
		if running.IsZero() {
			running = now
		}
		if view.State != serve.StateRunning {
			jt.queue = ms(running.Sub(t0)) - jt.ack
			jt.run = ms(now.Sub(running))
			return view, jt, nil
		}
	}
}

// servedJob is one completed job of a loop.
type servedJob struct {
	item int
	view serve.JobView
	s    sample
	jt   jobTimes
}

// serveLoop runs the closed loop for seconds, in whole cycles of the mix
// in an order the seed picks, and returns the jobs that completed. onJob,
// if set, sees each job while its files are still on the disk; they are
// removed one job later, when the worker is surely done with them, so
// the in-memory disk does not grow with the run.
func serveLoop(r *report, st *serveStack, norm *normalizer, items []serveItem, rng *rand.Rand, seconds float64, onJob func(servedJob)) []servedJob {
	var jobs []servedJob
	prev := ""
	forCycles(seconds, func() {
		for _, i := range rng.Perm(len(items)) {
			r.attempted++
			var view serve.JobView
			var jt jobTimes
			var err error
			s := norm.time(func() { view, jt, err = st.do(items[i].body) })
			if err == nil && (view.State != serve.StateDone || view.Result == nil) {
				err = fmt.Errorf("job %s ended %s: %+v", view.ID, view.State, view.Error)
			}
			if err != nil {
				r.fail("%s: %v", items[i].mol.Name, err)
				continue
			}
			j := servedJob{item: i, view: view, s: s, jt: jt}
			jobs = append(jobs, j)
			if onJob != nil {
				onJob(j)
			}
			if prev != "" {
				if err := removeTree(st.disk, filepath.Join(serveDataDir, prev)); err != nil {
					r.fail("removing job %s: %v", prev, err)
				}
			}
			prev = view.ID
		}
	})
	return jobs
}

// removeTree deletes dir and everything under it from the disk.
func removeTree(disk *fs.FaultFS, dir string) error {
	entries, err := disk.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		if e.IsDir() {
			err = removeTree(disk, p)
		} else {
			err = disk.Remove(p)
		}
		if err != nil {
			return err
		}
	}
	return disk.Remove(dir)
}

func runServeClosed(cfg config) (*report, error) {
	r := newReport()
	norm := newNormalizer(1)
	sizes := servePoolAtoms
	if cfg.short {
		sizes = serveShortAtoms
	}
	var items []serveItem
	var stacks []*serveStack
	_, err := r.setup(norm, func() error {
		var err error
		if items, err = serveRequests(sizes); err != nil {
			return err
		}
		st, err := startServe(nil)
		if err != nil {
			return err
		}
		stacks = append(stacks, st)
		return nil
	})
	for i, st := range stacks {
		if err != nil || i < len(stacks)-1 {
			st.srv.Drain()
		}
	}
	if err != nil {
		return nil, err
	}
	st := stacks[len(stacks)-1]

	rng := rand.New(rand.NewSource(cfg.seed))
	meter := startRuntimeMeter()
	jobs := serveLoop(r, st, norm, items, rng, cfg.loopSeconds(), nil)
	meter.record(r, len(jobs))
	st.srv.Drain()
	ss := make([]sample, len(jobs))
	sampled := make([]int, len(jobs))
	for k, j := range jobs {
		ss[k], sampled[k] = j.s, j.item
	}
	atoms := make([]int, len(items))
	for i, it := range items {
		atoms[i] = it.mol.NumAtoms()
	}
	r.timings(ss, sampled, atoms)
	if err := r.recordPeakRSS(); err != nil {
		return nil, err
	}

	var traced []servedJob
	var m means
	if cfg.trace {
		if traced, err = serveTraced(r, &m, norm, items, rng, cfg.loopSeconds()); err != nil {
			return nil, err
		}
	}

	// Each served result against a direct run of its molecule at the same
	// accuracy point and layout, and against the naïve energy.
	type refKey struct {
		mol *molecule.Molecule
		acc serve.AccuracyDoc // zero for the default accuracy
	}
	keyOf := func(j servedJob) refKey {
		k := refKey{mol: items[j.item].mol}
		if a := j.view.Result.Accuracy; a != nil {
			k.acc = *a
		}
		return k
	}
	all := append(jobs, traced...)
	index := map[refKey]int{}
	var keys []refKey
	for _, j := range all {
		if k := keyOf(j); index[k] == 0 {
			keys = append(keys, k)
			index[k] = len(keys)
		}
	}
	refs := make([]serveRef, len(keys))
	forEachParallel(len(keys), func(i int) { refs[i] = serveReference(keys[i].mol, keys[i].acc) })
	for _, ref := range refs {
		if ref.err != nil {
			return nil, fmt.Errorf("direct reference run: %w", ref.err)
		}
	}
	for n, j := range all {
		ref := refs[index[keyOf(j)]-1]
		res := j.view.Result
		label := fmt.Sprintf("job %s (%s, tuned %v)", j.view.ID, items[j.item].mol.Name, items[j.item].tuned)
		if res.EpolBits != ref.bits {
			r.fail("%s: epol_bits %s, direct System.Run %s", label, res.EpolBits, ref.bits)
			continue
		}
		r.checkEpol(label, res.Epol, ref.naive, ref.bound)
		if n >= len(jobs) {
			m.addTraffic(ref.traffic)
		}
	}
	m.into(r)
	return r, nil
}

// serveTraced runs the traced loop on a server with a recorder attached
// and records the serve, supervise, fs, obs, tune and gb-phase figures.
// The gb phases come from each job's persisted attempt trace.
func serveTraced(r *report, m *means, norm *normalizer, items []serveItem, rng *rand.Rand, seconds float64) ([]servedJob, error) {
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	st, err := startServe(rec)
	if err != nil {
		return nil, err
	}
	var acks, queues, runs []float64
	factorSum, tuned := 0.0, 0
	jobs := serveLoop(r, st, norm, items, rng, seconds, func(j servedJob) {
		f := j.s.factor()
		acks = append(acks, j.jt.ack*f)
		queues = append(queues, j.jt.queue*f)
		runs = append(runs, j.jt.run*f)
		factorSum += f
		if items[j.item].tuned {
			tuned++
		}
		m.add("supervise.attempts_per_job", float64(j.view.Result.Attempts))
		name := filepath.Join(serveDataDir, j.view.ID, "trace", fmt.Sprintf("attempt-%d.json", j.view.Result.Attempts))
		data, err := st.disk.ReadFile(name)
		var traces []critpath.Run
		if err == nil {
			traces, err = critpath.ParseChromeTrace(data)
		}
		if err == nil && len(traces) != 1 {
			err = fmt.Errorf("%d runs in the trace, want 1", len(traces))
		}
		if err != nil {
			r.fail("trace of job %s: %v", j.view.ID, err)
			return
		}
		covered := m.addLayers(traces[0], f)
		m.add("trace.phase_coverage_frac", covered/j.s.normMs)
	})
	st.srv.Drain()

	ss := make([]sample, len(jobs))
	for i, j := range jobs {
		ss[i] = j.s
	}
	r.overhead(ss)
	n := float64(len(jobs))
	c := st.cfs.counts()
	r.values["serve.ack_ms.p50"] = median(acks)
	r.values["serve.ack_ms.p90"] = quantile(acks, 0.9)
	r.values["serve.queue_wait_ms.p50"] = median(queues)
	r.values["serve.run_ms.p50"] = median(runs)
	r.values["fs.syncs_per_job"] = frac(float64(c.syncs), n)
	r.values["fs.renames_per_job"] = frac(float64(c.renames), n)
	r.values["fs.write_kib_per_job"] = frac(float64(c.writeBytes)/1024, n)
	r.values["fs.busy_ms_per_job"] = frac(ms(c.busy)*frac(factorSum, n), n)
	r.values["supervise.checkpoints_per_job"] = frac(float64(c.checkpoints), n)
	r.values["obs.trace_kib_per_job"] = frac(float64(c.traceBytes)/1024, n)
	r.values["tune.verify_runs_per_job"] = frac(float64(rec.Counters()["tune.verify_runs"]), float64(tuned))

	// The tuner runs inside the server's worker, out of the client's
	// reach, so it is timed on its own for each tuned molecule; its
	// search is deterministic per molecule and target.
	var selects []float64
	for _, it := range items {
		if !it.tuned {
			continue
		}
		var err error
		s := norm.time(func() { _, err = tune.Select(it.mol, serveTargetKcal, tune.Options{}) })
		if err != nil {
			return nil, fmt.Errorf("tuning %s: %w", it.mol.Name, err)
		}
		selects = append(selects, s.normMs)
	}
	r.values["tune.select_ms.p50"] = median(selects)
	return jobs, nil
}

// serveRef is what a served result must match: the Epol bits of a direct
// System.Run of the same molecule at the same accuracy point and layout,
// and the naïve energy with the bound around it.
type serveRef struct {
	bits    string
	naive   float64
	bound   float64 // kcal/mol
	traffic simmpi.Stats
	err     error
}

// serveReference computes a serveRef. A tuned point is rebuilt from the
// result's accuracy envelope, and its bound is the requested target.
func serveReference(mol *molecule.Molecule, acc serve.AccuracyDoc) serveRef {
	surfCfg := surface.DefaultConfig()
	params := gb.DefaultParams()
	tuned := acc != serve.AccuracyDoc{}
	if tuned {
		surfCfg.RuleDegree = acc.QuadOrder
		params.Accuracy = gb.Accuracy{EpsBorn: acc.EpsBorn, EpsEpol: acc.EpsEpol, BinWidth: acc.BinWidth,
			QuadOrder: acc.QuadOrder, Order: acc.Order, TargetError: acc.TargetErrorKcal}
	}
	surf, err := surface.Build(mol, surfCfg)
	if err != nil {
		return serveRef{err: err}
	}
	sys, err := gb.NewSystem(mol, surf, params)
	if err != nil {
		return serveRef{err: err}
	}
	// The server runs every job under the supervisor, which always takes
	// the fault-tolerance protocol path; the bitwise contract is with it.
	res, err := sys.Run(gb.RunSpec{Processes: 2, Faults: &gb.FaultConfig{ForceProtocol: true}})
	if err != nil {
		return serveRef{err: err}
	}
	naive := naiveEpol(sys)
	bound := tune.RelErrorBound(sys.Params.Accuracy) * math.Abs(naive)
	if tuned {
		bound = acc.TargetErrorKcal
	}
	return serveRef{bits: fmt.Sprintf("%016x", math.Float64bits(res.Epol)), naive: naive, bound: bound, traffic: res.Traffic}
}
