package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gbpolar/internal/fault"
	"gbpolar/internal/fault/fs"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/supervise"
	"gbpolar/internal/surface"
	"gbpolar/internal/tune"
)

// Config configures a Server. The zero value plus DataDir is usable.
type Config struct {
	// DataDir is the job persistence root. Empty disables persistence
	// (jobs cannot survive a restart — fine for tests, wrong for gbd).
	DataDir string
	// QueueDepth bounds the admission queue (default 16). A full queue
	// rejects with 429 + Retry-After; it never grows.
	QueueDepth int
	// Workers is the number of concurrent supervised runs (default 1:
	// the simulated cluster is itself parallel, and one run at a time
	// keeps the checkpoint/IO story simple to reason about).
	Workers int
	// MaxAtoms caps the roster size of a request (default 20000).
	MaxAtoms int
	// MaxBodyBytes caps the request body (default 16 MiB).
	MaxBodyBytes int64
	// DefaultProcesses / DefaultThreads are the layout used when a
	// request does not pick one (defaults 4 and 1).
	DefaultProcesses int
	DefaultThreads   int
	// Retries is the supervised retry budget per job (default 2).
	Retries int
	// Machine is the perf model used to turn queued work into the
	// Retry-After seconds of a 429 (default Lonestar4, the paper's
	// Table I machine).
	Machine perf.Machine
	// MaxRetryAfterSec clamps the modeled Retry-After of every 429 to
	// [1, MaxRetryAfterSec] seconds (default 60): the model prices the
	// queued work, the clamp keeps a mis-modeled burst from telling
	// clients to go away for an hour.
	MaxRetryAfterSec int64
	// MemBudgetBytes caps the modeled resident bytes of admitted work
	// (running + queued), priced from the perf machine model's
	// replicated-data estimate: atoms × bytes-per-atom × processes. A
	// job that would exceed the headroom is first shrunk to the widest
	// process count that fits (degrade, not OOM), then rejected with
	// 429 memory_pressure; a job too large for the whole budget at P=1
	// is rejected 413. Default 1 GiB; negative disables the gate.
	MemBudgetBytes int64
	// FS is the filesystem all persistence (job.json, result.json,
	// checkpoints, traces) goes through; nil means the real disk
	// (fs.OS). The soak harness hands in a fault-injecting fs.FaultFS.
	FS fs.FS
	// Quota is the per-tenant admission quota (zero disables it).
	Quota QuotaConfig
	// ShedQueueDepth is the queue depth at which newly started jobs are
	// pre-shed onto the relax rung (ShedEpsFactor). 0 defaults to
	// QueueDepth/2; negative disables depth-based shedding. Jobs are
	// also shed when the previous run's health view reports lost or
	// straggling ranks — the cluster is struggling, so buy slack.
	ShedQueueDepth int
	// ShedEpsFactor is the pre-relaxation used when shedding (default
	// 1.5). The shed accuracy is priced into the response's ErrorBound
	// and the result is marked Degraded — shedding is visible, never
	// silent. In Accuracy terms the factor maps onto
	// gb.Accuracy.Relaxed(ShedEpsFactor) applied to the job's point
	// (tuned or default) — see supervise.Spec.StartEpsFactor.
	ShedEpsFactor float64
	// KeepCheckpoints is the per-config snapshot retention passed to
	// DirStore.Prune after a job completes (default 1).
	KeepCheckpoints int
	// Obs receives request-level counters and histograms. Nil is inert.
	Obs *obs.Recorder
	// Clock is the time source (default time.Now; injectable so quota
	// and deadline tests never sleep).
	Clock func() time.Time
	// PlanFor injects a fault plan per (job, attempt) — the chaos
	// tests' hook. Nil means no injection.
	PlanFor func(jobID string, attempt int) *fault.Plan
	// CheckpointDelay slows every checkpoint save (test hook: it widens
	// the phase-boundary window so a drain signal reliably lands while
	// a job is mid-run).
	CheckpointDelay time.Duration
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxAtoms <= 0 {
		c.MaxAtoms = 20000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.DefaultProcesses <= 0 {
		c.DefaultProcesses = 4
	}
	if c.DefaultThreads <= 0 {
		c.DefaultThreads = 1
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.Machine.OpsPerSecond <= 0 {
		c.Machine = perf.Lonestar4()
	}
	if c.ShedQueueDepth == 0 {
		c.ShedQueueDepth = c.QueueDepth / 2
		if c.ShedQueueDepth < 1 {
			c.ShedQueueDepth = 1
		}
	}
	if c.ShedEpsFactor <= 1 {
		c.ShedEpsFactor = 1.5
	}
	if c.KeepCheckpoints <= 0 {
		c.KeepCheckpoints = 1
	}
	if c.MaxRetryAfterSec <= 0 {
		c.MaxRetryAfterSec = 60
	}
	if c.MemBudgetBytes == 0 {
		c.MemBudgetBytes = 1 << 30
	}
	if c.FS == nil {
		c.FS = fs.OS
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// job is the in-memory state of one admitted job.
type job struct {
	id      string
	req     JobRequest
	mol     *molecule.Molecule
	resumed bool
	// estOps is the modeled interaction count charged to the queue at
	// admission and released at dequeue.
	estOps int64
	// memBytes is the modeled resident footprint charged against the
	// memory budget at admission and released when the job leaves the
	// server (terminal or interrupted).
	memBytes int64
	// runP, when nonzero, overrides the request's process count: the
	// memory gate shrank the layout to fit the budget headroom.
	runP int
	// enqueued is when the job entered the queue (deadline accounting).
	enqueued time.Time

	mu   sync.Mutex
	view JobView
}

func (j *job) setView(mutate func(v *JobView)) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	mutate(&j.view)
	return j.view
}

func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}

// Server is the daemon core. Create with New, serve its Handler, stop
// with Drain.
type Server struct {
	cfg Config
	rec *obs.Recorder

	queue       chan *job
	queuedOps   atomic.Int64  // modeled ops waiting in the queue
	opsPerAtom  atomic.Uint64 // EWMA of measured ops/atom, as float bits
	memInflight atomic.Int64  // modeled bytes charged against MemBudgetBytes

	draining atomic.Bool
	runCtx   context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup

	quotas *quotas

	// unhealthy is set when the last run's health view reported lost or
	// straggling ranks; the next job then starts pre-shed.
	unhealthy atomic.Bool

	// resumed counts jobs re-queued from disk at startup (gbd's startup
	// log line reports it).
	resumed int

	mu   sync.Mutex
	jobs map[string]*job
	done map[string]*JobView // terminal views reloaded from disk
}

// New builds a Server: it scans DataDir, registers finished jobs'
// terminal views, and re-queues unfinished ones (each will resume from
// its newest checkpoint). Start launches the workers.
func New(cfg Config) (*Server, error) {
	// A non-finite factor would fail every pre-shed job at
	// gb.WithAccuracy; refuse it before any job is admitted.
	if math.IsNaN(cfg.ShedEpsFactor) || math.IsInf(cfg.ShedEpsFactor, 0) {
		return nil, fmt.Errorf("serve: shed eps factor %v must be finite", cfg.ShedEpsFactor)
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:  cfg,
		rec:  cfg.Obs,
		jobs: make(map[string]*job),
		done: make(map[string]*JobView),
	}
	s.runCtx, s.stop = context.WithCancel(context.Background())
	s.quotas = newQuotas(cfg.Quota, cfg.Clock)
	// Seed the cost model with a generic octree workload density; real
	// measurements take over after the first completed job.
	s.opsPerAtom.Store(math.Float64bits(2000))

	var finished []*JobView
	var unfinished []*jobRecord
	if cfg.DataDir != "" {
		var err error
		finished, unfinished, err = s.scanJobs()
		if err != nil {
			return nil, err
		}
	}
	// The queue must hold every resumed job plus the configured depth.
	s.queue = make(chan *job, cfg.QueueDepth+len(unfinished))
	for _, v := range finished {
		s.done[v.ID] = v
	}
	for _, recd := range unfinished {
		mol, err := validateRequest(&recd.Req, s.cfg.MaxAtoms)
		if err != nil {
			// The persisted request no longer validates (limits may have
			// changed, or an older daemon admitted a layout it could not
			// run): finish it as a typed input error instead of
			// resurrecting it forever.
			s.finishInvalid(recd.ID, err)
			continue
		}
		j := &job{id: recd.ID, req: recd.Req, mol: mol, resumed: true,
			estOps: s.estimateOps(mol.NumAtoms()), enqueued: cfg.Clock(),
			view: JobView{ID: recd.ID, State: StateQueued, TraceID: traceIDFor(recd.ID)}}
		// Resumed jobs were admitted by a past incarnation: charge their
		// footprint but never reject them — a restart must not drop a
		// 202-acknowledged job because the budget shrank.
		s.chargeMem(j, s.estimateBytes(mol.NumAtoms(), s.jobProcesses(&j.req)))
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.queuedOps.Add(j.estOps)
		s.queue <- j
		s.resumed++
		s.count("serve.jobs.resumed", 1)
	}
	return s, nil
}

// Start launches the worker goroutines. It is separate from New so
// tests can stage the queue before anything runs.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
}

// Drain gracefully stops the server: admission closes (new POSTs get a
// typed 503), the run context is canceled — each in-flight job stops at
// its next phase boundary with its checkpoint durable — and Drain
// returns when every worker has exited. Jobs still queued or
// interrupted keep their job.json and no result.json, so the next New
// re-queues them.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.stop()
	//lint:ignore ctxflow blocking until workers exit is Drain's contract; stop() just canceled runCtx, so every worker unblocks and Wait terminates
	s.wg.Wait()
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth reports how many jobs are waiting in the admission queue
// right now (gbd's structured log lines report it at startup and drain).
func (s *Server) QueueDepth() int { return len(s.queue) }

// ResumedJobs reports how many unfinished jobs New re-queued from disk.
func (s *Server) ResumedJobs() int { return s.resumed }

// Ready is the readiness probe for obs.Server.SetReadySource: false
// once draining (liveness stays true — the process is still
// checkpointing, don't kill it).
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining: admission closed, in-flight jobs checkpointing"
	}
	return true, ""
}

func (s *Server) count(name string, delta int64) {
	s.rec.Count(name, delta)
}

// worker pulls jobs until drain. A canceled context wins over more
// queued work: queued jobs are durable and belong to the next process.
func (s *Server) worker() {
	for {
		select {
		case <-s.runCtx.Done():
			return
		default:
		}
		select {
		case <-s.runCtx.Done():
			return
		case j := <-s.queue:
			s.queuedOps.Add(-j.estOps)
			s.runJob(j)
		}
	}
}

// seedOpsPerAtom is the generic octree workload density the cost model
// starts from (and falls back to if the EWMA is ever driven to a
// non-positive or NaN state); real measurements take over after the
// first completed job.
const seedOpsPerAtom = 2000

// estimateOps models a job's interaction count from the measured
// ops-per-atom EWMA. It deliberately overestimates small molecules
// rather than underestimating large ones: Retry-After built on it errs
// toward clients backing off slightly long.
func (s *Server) estimateOps(atoms int) int64 {
	perAtom := math.Float64frombits(s.opsPerAtom.Load())
	if math.IsNaN(perAtom) || perAtom <= 0 {
		perAtom = seedOpsPerAtom
	}
	return int64(perAtom * float64(atoms))
}

// estimateBytes models a job's peak resident footprint from the perf
// machine model: the paper's replicated-data layout holds the full
// atom + quadrature data on every process, so the bytes the machine
// model prices for one rank are multiplied by the process count.
func (s *Server) estimateBytes(atoms, procs int) int64 {
	if procs < 1 {
		procs = 1
	}
	return perf.EstimateDataBytes(atoms, 60*atoms) * int64(procs)
}

// jobProcesses resolves a request's effective process count.
func (s *Server) jobProcesses(req *JobRequest) int {
	if req.Processes > 0 {
		return req.Processes
	}
	return s.cfg.DefaultProcesses
}

// chargeMem records a job's modeled footprint against the budget (and
// the storage.bytes_inflight gauge); releaseMem undoes it exactly once.
func (s *Server) chargeMem(j *job, bytes int64) {
	j.memBytes = bytes
	s.memInflight.Add(bytes)
	s.rec.GaugeAdd("storage.bytes_inflight", bytes)
}

func (s *Server) releaseMem(j *job) {
	if j.memBytes == 0 {
		return
	}
	s.memInflight.Add(-j.memBytes)
	s.rec.GaugeAdd("storage.bytes_inflight", -j.memBytes)
	j.memBytes = 0
}

// learnOps folds a completed job's measured total ops into the EWMA.
func (s *Server) learnOps(atoms int, total int64) {
	if atoms <= 0 || total <= 0 {
		return
	}
	measured := float64(total) / float64(atoms)
	for {
		oldBits := s.opsPerAtom.Load()
		old := math.Float64frombits(oldBits)
		next := 0.7*old + 0.3*measured
		if s.opsPerAtom.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfter turns the modeled cost of the queued work into whole
// seconds for a 429's Retry-After, clamped to [1, MaxRetryAfterSec].
// The lower clamp also absorbs every degenerate model state — an empty
// queue, a cold or poisoned EWMA driving queuedOps to zero or negative,
// a zero-rate machine config — so the header is always a sane positive
// number of seconds.
func (s *Server) retryAfter() int64 {
	cores := float64(s.cfg.DefaultProcesses * s.cfg.DefaultThreads)
	secs := 0.0
	if rate := s.cfg.Machine.OpsPerSecond * cores; rate > 0 {
		secs = float64(s.queuedOps.Load()) / rate
	}
	if math.IsNaN(secs) || secs < 1 {
		return 1
	}
	if secs > float64(s.cfg.MaxRetryAfterSec) {
		return s.cfg.MaxRetryAfterSec
	}
	return int64(math.Ceil(secs))
}

// Admission errors, distinguished by sentinel so the HTTP layer can map
// them without string matching.
var (
	errDraining   = errors.New("serve: draining")
	errQueueFull  = errors.New("serve: queue full")
	errOverQuota  = errors.New("serve: over quota")
	errOverMemory = errors.New("serve: over memory budget")
	errTooLarge   = errors.New("serve: job exceeds memory budget at any layout")
	errPersistJob = errors.New("serve: persisting job")
)

// admitMemory runs the memory-budget gate for a validated request:
// charge the modeled footprint if it fits, shrink the process count to
// the widest layout that does (degrade, not OOM — the shrink is visible
// in serve.jobs.memshrunk and in the job's layout), or reject. It
// returns the effective process-count override (0: run as requested).
func (s *Server) admitMemory(j *job, atoms, reqP int) (runP int, err error) {
	budget := s.cfg.MemBudgetBytes
	if budget <= 0 {
		return 0, nil
	}
	if s.estimateBytes(atoms, 1) > budget {
		// No layout of this molecule ever fits: a 429 would invite a
		// retry that can never succeed, so this one is permanent (413).
		s.count("serve.rejected.toolarge", 1)
		return 0, errTooLarge
	}
	headroom := budget - s.memInflight.Load()
	if need := s.estimateBytes(atoms, reqP); need <= headroom {
		s.chargeMem(j, need)
		return 0, nil
	}
	p := reqP
	for p > 1 && s.estimateBytes(atoms, p) > headroom {
		p--
	}
	if s.estimateBytes(atoms, p) > headroom {
		s.count("serve.rejected.memory", 1)
		return 0, errOverMemory
	}
	s.chargeMem(j, s.estimateBytes(atoms, p))
	s.count("serve.jobs.memshrunk", 1)
	return p, nil
}

// admit validates, persists, and enqueues a request. It returns the
// job, or one of the sentinel admission errors (with retryAfter
// seconds for the 429s), or a molecule.ErrInvalidInput-wrapping error.
func (s *Server) admit(req *JobRequest) (j *job, retryAfterSec int64, err error) {
	s.count("serve.requests", 1)
	if s.draining.Load() {
		s.count("serve.rejected.draining", 1)
		return nil, 0, errDraining
	}
	if ok, wait := s.quotas.take(req.Tenant); !ok {
		s.count("serve.rejected.quota", 1)
		return nil, int64(math.Ceil(wait.Seconds())), errOverQuota
	}
	mol, err := validateRequest(req, s.cfg.MaxAtoms)
	if err != nil {
		s.count("serve.rejected.invalid", 1)
		return nil, 0, err
	}
	// Bound the queue and the memory budget BEFORE persisting: a
	// rejected request leaves no trace on disk.
	if len(s.queue) >= s.cfg.QueueDepth {
		s.count("serve.rejected.overload", 1)
		return nil, s.retryAfter(), errQueueFull
	}
	j = &job{req: *req, mol: mol,
		estOps: s.estimateOps(mol.NumAtoms()), enqueued: s.cfg.Clock()}
	runP, err := s.admitMemory(j, mol.NumAtoms(), s.jobProcesses(req))
	if err != nil {
		return nil, s.retryAfter(), err
	}
	j.runP = runP
	id, err := newJobID()
	if err != nil {
		s.releaseMem(j)
		return nil, 0, fmt.Errorf("%w: %w", errPersistJob, err)
	}
	j.id = id
	j.view = JobView{ID: id, State: StateQueued, TraceID: traceIDFor(id)}
	if s.cfg.DataDir != "" {
		// The 202 ack rides on this write being durable: persistJob goes
		// through the full temp+write+fsync+rename discipline, and a
		// failure here fails the admission — the client is never told
		// "accepted" on the strength of a page cache.
		if err := s.persistJob(id, req); err != nil {
			s.releaseMem(j)
			return nil, 0, fmt.Errorf("%w: %w", errPersistJob, err)
		}
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	select {
	case s.queue <- j:
	default:
		// Lost the race for the last slot; withdraw the job.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.releaseMem(j)
		s.count("serve.rejected.overload", 1)
		return nil, s.retryAfter(), errQueueFull
	}
	s.queuedOps.Add(j.estOps)
	s.rec.Gauge("serve.queue.depth", int64(len(s.queue)))
	s.count("serve.admitted", 1)
	return j, 0, nil
}

// lookup returns a job's current view.
func (s *Server) lookup(id string) (JobView, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	v, done := s.done[id]
	s.mu.Unlock()
	if j != nil {
		return j.snapshot(), true
	}
	if done {
		return *v, true
	}
	return JobView{}, false
}

// finishInvalid records a terminal typed-input-error view for a job
// that never got to run (used for resumed jobs that no longer
// validate).
func (s *Server) finishInvalid(id string, err error) {
	view := &JobView{ID: id, State: StateFailed, TraceID: traceIDFor(id),
		Error: &ErrorDoc{Code: CodeInvalidInput, Message: err.Error()}}
	if s.cfg.DataDir != "" {
		if perr := s.persistResult(id, view); perr != nil {
			s.count("serve.persist_errors", 1)
		}
	}
	s.mu.Lock()
	s.done[id] = view
	s.mu.Unlock()
}

// delaySink widens the checkpoint window (see Config.CheckpointDelay).
type delaySink struct {
	supervise.Store
	d time.Duration
}

func (d delaySink) Save(phase gb.CheckpointPhase, encoded []byte) error {
	time.Sleep(d.d)
	return d.Store.Save(phase, encoded)
}

// runJob executes one job through the supervised ladder and records its
// terminal view. Every exit is one of: done (possibly Degraded with a
// bound), failed with a typed error, or interrupted by drain with a
// durable checkpoint.
func (s *Server) runJob(j *job) {
	j.setView(func(v *JobView) { v.State = StateRunning })
	start := s.cfg.Clock()
	queueWait := start.Sub(j.enqueued)

	deadline := time.Duration(j.req.DeadlineMS) * time.Millisecond
	if deadline > 0 {
		if queueWait >= deadline {
			s.finishJob(j, nil, &ErrorDoc{Code: CodeDeadlineExceeded,
				Message: fmt.Sprintf("deadline of %v expired after %v in queue", deadline, queueWait.Round(time.Millisecond))})
			s.observeSLO(j, queueWait, 0)
			return
		}
		deadline -= queueWait
	}

	// Overload-aware shedding: under queue pressure, or when the last
	// run's health view says ranks were lost or straggling, start on
	// the relax rung. The job completes sooner at priced accuracy
	// instead of competing at full cost.
	shed := false
	startEps := 0.0
	if (s.cfg.ShedQueueDepth > 0 && len(s.queue) >= s.cfg.ShedQueueDepth) || s.unhealthy.Load() {
		shed = true
		startEps = s.cfg.ShedEpsFactor
		s.count("serve.jobs.shed", 1)
	}

	out, sel, runErr := s.superviseJob(j, deadline, startEps)

	if runErr != nil {
		if errors.Is(runErr, supervise.ErrCanceled) || errors.Is(runErr, gb.ErrRunCanceled) {
			// Drain won: the newest checkpoint is durable, job.json is
			// still there, result.json is not — the restarted daemon
			// re-queues this job and resumes bitwise-identically. The
			// interrupted attempt's trace was already force-closed and
			// persisted by the trace sink. A drain during the tuner's
			// search (gb.ErrRunCanceled) leaves no checkpoint: the restart
			// tunes again, deterministically, and runs from the start.
			j.setView(func(v *JobView) { v.State = StateInterrupted })
			s.releaseMem(j)
			s.count("serve.jobs.interrupted", 1)
			return
		}
		s.finishJob(j, nil, &ErrorDoc{Code: CodeInternal, Message: runErr.Error()})
		s.observeSLO(j, queueWait, s.cfg.Clock().Sub(start))
		return
	}

	res := out.Result
	doc := &ResultDoc{
		Epol:            res.Epol,
		EpolBits:        epolBits(res.Epol),
		BornCRC32:       bornCRCHex(res.Born),
		Atoms:           j.mol.NumAtoms(),
		Degraded:        out.Degraded,
		ErrorBound:      res.ErrorBound,
		Rung:            out.Rung.String(),
		EpsFactor:       out.EpsFactor,
		Attempts:        len(out.Attempts),
		Shed:            shed,
		Resumed:         j.resumed,
		ShrunkProcesses: j.runP,
	}
	if sel != nil {
		// The outcome's point reflects any supervisor shedding, so the
		// envelope reports the accuracy the job actually ran at; predicted
		// error follows the final point (a shed step's prediction is its
		// ladder RelError, already priced into error_bound).
		acc := out.Accuracy
		pred := sel.Point.PredictedError
		if out.RelError > 0 {
			pred = out.RelError * math.Abs(res.Epol)
		}
		doc.Accuracy = &AccuracyDoc{
			EpsBorn: acc.EpsBorn, EpsEpol: acc.EpsEpol, BinWidth: acc.BinWidth,
			QuadOrder: acc.QuadOrder, Order: acc.Order,
			TargetErrorKcal:    j.req.TargetErrorKcal,
			PredictedErrorKcal: pred,
		}
	}
	// An attempt that resumed a finished run counted no ops. A tuned
	// job's finished run is the tuner's, which measured them.
	ops := res.TotalOps()
	if ops == 0 && sel != nil {
		ops = sel.Point.Ops
	}
	s.learnOps(doc.Atoms, ops)
	if hv, ok := out.Recorder.Health(); ok {
		s.unhealthy.Store(len(hv.Lost) > 0 || len(hv.Straggling) > 0)
	}
	s.finishJob(j, doc, nil)
	if out.Degraded {
		s.count("serve.jobs.degraded", 1)
	}
	runDur := s.cfg.Clock().Sub(start)
	// The SLO histograms come last: a reader that sees a job's SLO sample
	// also sees its critical-path gauges.
	s.publishCritPath(out.Recorder)
	s.rec.ObserveGauge("serve.job.wall_us", runDur.Microseconds())
	s.observeSLO(j, queueWait, runDur)
}

// superviseJob builds the system and runs the ladder, both on the job's
// own layout after any shrink by the memory gate. Requests with a target
// error first go through the tuner: the job runs at the cheapest
// admitted accuracy point, and the supervisor's relax rung steps down
// the tuner's frontier (selection returned for the result envelope).
func (s *Server) superviseJob(j *job, deadline time.Duration, startEps float64) (*supervise.Outcome, *tune.Selection, error) {
	var (
		sys    *gb.System
		sel    *tune.Selection
		ladder []supervise.RelaxStep
	)
	P := s.jobProcesses(&j.req)
	if j.runP > 0 {
		// The memory gate shrank the layout at admission; honor it.
		P = j.runP
	}
	threads := j.req.Threads
	if threads <= 0 {
		threads = s.cfg.DefaultThreads
	}
	if j.req.TargetErrorKcal > 0 {
		var err error
		sel, err = tune.Select(j.mol, j.req.TargetErrorKcal, tune.Options{
			Processes: P, ThreadsPerProcess: threads, Ctx: s.runCtx, Obs: s.rec,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("tuning accuracy: %w", err)
		}
		sys = sel.System
		for _, p := range sel.Ladder {
			ladder = append(ladder, supervise.RelaxStep{Accuracy: p.Acc, RelError: p.PredictedRelError})
		}
	} else {
		// The surface is sampled on the job's own cores, at most one
		// per atom (threads never exceed the atoms; P may).
		n := j.mol.NumAtoms()
		surf, err := surface.BuildWorkers(j.mol, surface.DefaultConfig(), min(min(P, n)*threads, n))
		if err != nil {
			return nil, nil, fmt.Errorf("building surface: %w", err)
		}
		sys, err = gb.NewSystem(j.mol, surf, gb.DefaultParams())
		if err != nil {
			return nil, nil, fmt.Errorf("building system: %w", err)
		}
	}
	var store supervise.Store
	if s.cfg.DataDir != "" {
		store = &supervise.DirStore{Dir: s.ckptDir(j.id), FS: s.cfg.FS, Obs: s.rec}
	} else {
		store = supervise.NewMemStore()
	}
	// Hand the tuner's run of the point to the supervisor, whose first
	// attempt then resumes it instead of computing the same bits again.
	// A pre-shed job must run the shed point, and a pick that ran on one
	// rank has no snapshot; both compute. A failed save only loses the
	// shortcut.
	if sel != nil && sel.Snapshot != nil && startEps <= 1 {
		if err := store.Save(gb.PhaseEpol, sel.Snapshot); err != nil {
			s.count("serve.tune_handoff_errors", 1)
		}
	}
	if s.cfg.CheckpointDelay > 0 {
		store = delaySink{Store: store, d: s.cfg.CheckpointDelay}
	}
	var planFn func(int) *fault.Plan
	if s.cfg.PlanFor != nil {
		id := j.id
		planFn = func(attempt int) *fault.Plan { return s.cfg.PlanFor(id, attempt) }
	}
	// Every attempt's trace is persisted next to the job's checkpoints —
	// including failed and drain-canceled attempts, whose traces are the
	// ones a post-mortem needs most.
	var sink func(attempt int, rec *obs.Recorder)
	if s.cfg.DataDir != "" {
		id := j.id
		sink = func(attempt int, rec *obs.Recorder) {
			if err := s.persistAttemptTrace(id, attempt, rec); err != nil {
				s.count("serve.trace_persist_errors", 1)
			}
		}
	}
	out, err := supervise.Run(sys, supervise.Spec{
		Processes:         P,
		ThreadsPerProcess: threads,
		Plan:              planFn,
		Deadline:          deadline,
		Retries:           s.cfg.Retries,
		Seed:              j.req.Seed,
		Store:             store,
		Obs:               s.rec,
		Trace:             s.traceFor(j),
		TraceSink:         sink,
		Clock:             s.cfg.Clock,
		Context:           s.runCtx,
		AccuracyLadder:    ladder,
		StartEpsFactor:    startEps,
	})
	return out, sel, err
}

// finishJob records a terminal view (exactly one of doc/errDoc is
// non-nil), persists it, prunes the job's checkpoints, and moves the
// job to the done set.
func (s *Server) finishJob(j *job, doc *ResultDoc, errDoc *ErrorDoc) {
	var view JobView
	if errDoc != nil {
		view = j.setView(func(v *JobView) {
			v.State = StateFailed
			v.Error = errDoc
		})
		s.count("serve.jobs.failed", 1)
	} else {
		view = j.setView(func(v *JobView) {
			v.State = StateDone
			v.Result = doc
		})
		s.count("serve.jobs.done", 1)
	}
	if s.cfg.DataDir != "" {
		if err := s.persistResult(j.id, &view); err != nil {
			s.count("serve.persist_errors", 1)
		}
		ds := &supervise.DirStore{Dir: s.ckptDir(j.id), FS: s.cfg.FS, Obs: s.rec}
		if _, err := ds.Prune(s.cfg.KeepCheckpoints); err != nil {
			s.count("serve.prune_errors", 1)
		}
	}
	s.releaseMem(j)
	s.mu.Lock()
	s.done[j.id] = &view
	delete(s.jobs, j.id)
	s.mu.Unlock()
}

// bornCRC fingerprints the Born radii bit-exactly: IEEE CRC-32 over the
// little-endian bytes of each float64 in atom order.
func bornCRC(born []float64) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, b := range born {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
		h.Write(buf[:])
	}
	return h.Sum32()
}

// bornCRCHex is bornCRC rendered the way ResultDoc carries it.
func bornCRCHex(born []float64) string { return fmt.Sprintf("%08x", bornCRC(born)) }
