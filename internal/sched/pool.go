package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gbpolar/internal/obs"
)

// Pool is a fixed set of workers executing fork-join task graphs with
// randomized work stealing.
type Pool struct {
	workers []*Worker
	steals  atomic.Int64
	spawned atomic.Int64
	parks   atomic.Int64

	mu     sync.Mutex
	cond   *sync.Cond
	idle   int
	closed bool
	rec    *obs.Recorder
	exited sync.WaitGroup // one count per worker goroutine still running
}

// Observe attaches an observability recorder: Close flushes the pool's
// lifetime steal and spawn totals into the "sched.steals"/"sched.tasks"
// gauges and each worker's executed-task count into the
// "sched.tasks_per_worker" gauge-side histogram (gauges, not counters —
// stealing is scheduling-dependent by design). Several pools may share
// one recorder; their totals add up.
func (p *Pool) Observe(rec *obs.Recorder) {
	p.mu.Lock()
	p.rec = rec
	p.mu.Unlock()
}

// Worker is one scheduler thread. Tasks receive the worker they run on so
// they can spawn children onto its deque.
type Worker struct {
	pool *Pool
	id   int
	rng  uint64
	dq   deque
	// executed counts tasks this worker ran (load-balance statistics fed
	// into the performance model).
	executed atomic.Int64
}

// ID returns the worker's index in the pool.
func (w *Worker) ID() int { return w.id }

// Pool returns the owning pool.
func (w *Worker) Pool() *Pool { return w.pool }

// New creates a pool with the given number of workers (minimum 1).
// The workers are goroutines; on a machine with fewer cores they simply
// interleave, preserving the scheduling semantics.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.workers = make([]*Worker, workers)
	for i := range p.workers {
		p.workers[i] = &Worker{pool: p, id: i, rng: uint64(i)*0x9e3779b97f4a7c15 + 1}
	}
	p.exited.Add(workers)
	for _, w := range p.workers {
		go w.loop()
	}
	return p
}

// NumWorkers returns the worker count.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Steals returns the number of successful steals so far.
func (p *Pool) Steals() int64 { return p.steals.Load() }

// Parks returns how often a worker ran out of local and stealable work
// and went to sleep — the pool-level steal-idle signal the critical-path
// attribution reads alongside comm time (a high park count with low comm
// means the layout starves workers, not the network).
func (p *Pool) Parks() int64 { return p.parks.Load() }

// TasksSpawned returns the number of tasks spawned so far.
func (p *Pool) TasksSpawned() int64 { return p.spawned.Load() }

// WorkerLoads returns per-worker executed-task counts.
func (p *Pool) WorkerLoads() []int64 {
	out := make([]int64, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.executed.Load()
	}
	return out
}

// Close shuts the pool down and returns once every worker goroutine has
// exited. It is meant to be called after all Run calls have returned.
func (p *Pool) Close() {
	p.mu.Lock()
	alreadyClosed := p.closed
	p.closed = true
	rec := p.rec
	p.mu.Unlock()
	p.cond.Broadcast()
	p.exited.Wait()
	if !alreadyClosed && rec != nil {
		rec.GaugeAdd("sched.steals", p.steals.Load())
		rec.GaugeAdd("sched.tasks", p.spawned.Load())
		rec.GaugeAdd("sched.parks", p.parks.Load())
		for _, w := range p.workers {
			rec.ObserveGauge("sched.tasks_per_worker", w.executed.Load())
		}
	}
}

// loop is the worker main loop: run local work, steal, or park.
func (w *Worker) loop() {
	p := w.pool
	defer p.exited.Done()
	for {
		t := w.dq.popBottom()
		if t == nil {
			t = w.trySteal()
		}
		if t != nil {
			w.executed.Add(1)
			t(w)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		// Re-check every deque under the lock before parking. A task
		// pushed after the failed steal above is either seen here, or
		// its pusher takes the lock after this worker parks, sees
		// idle > 0 and signals; without the re-check a push into that
		// gap wakes no one and Run waits forever.
		if p.queued() {
			p.mu.Unlock()
			continue
		}
		p.idle++
		p.parks.Add(1)
		p.cond.Wait()
		p.idle--
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return
		}
	}
}

// queued reports whether any worker's deque holds a task.
func (p *Pool) queued() bool {
	for _, v := range p.workers {
		if v.dq.size() > 0 {
			return true
		}
	}
	return false
}

// nextRand advances the worker's xorshift generator.
func (w *Worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// trySteal makes one pass over the other workers in random order and
// returns a stolen task, or nil.
func (w *Worker) trySteal() Task {
	p := w.pool
	n := len(p.workers)
	if n == 1 {
		return nil
	}
	start := int(w.nextRand() % uint64(n))
	for k := 0; k < n; k++ {
		v := p.workers[(start+k)%n]
		if v == w {
			continue
		}
		if t := v.dq.stealTop(); t != nil {
			p.steals.Add(1)
			return t
		}
	}
	return nil
}

// Group tracks a set of spawned tasks for a join: Spawn increments the
// count, task completion decrements it, Wait helps run work until it
// reaches zero.
type Group struct {
	pending atomic.Int64
}

// Spawn schedules fn on w's deque as part of group g.
func (w *Worker) Spawn(g *Group, fn Task) {
	g.pending.Add(1)
	w.pool.spawned.Add(1)
	w.dq.pushBottom(func(inner *Worker) {
		fn(inner)
		g.pending.Add(-1)
	})
	// Wake a parked worker if any.
	p := w.pool
	p.mu.Lock()
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Wait blocks until every task spawned into g has completed, executing
// local and stolen work while it waits (the Cilk "work-first" discipline:
// a waiting worker never idles while runnable work exists).
func (w *Worker) Wait(g *Group) {
	for g.pending.Load() > 0 {
		t := w.dq.popBottom()
		if t == nil {
			t = w.trySteal()
		}
		if t != nil {
			w.executed.Add(1)
			t(w)
			continue
		}
		runtime.Gosched()
	}
}

// Run executes fn on worker 0's context and blocks until fn returns. Work
// spawned by fn (transitively) is balanced across the pool. Run calls must
// not overlap.
func (p *Pool) Run(fn Task) {
	done := make(chan struct{})
	w := p.workers[0]
	w.dq.pushBottom(func(inner *Worker) {
		fn(inner)
		close(done)
	})
	p.mu.Lock()
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
	<-done
}

// ParallelRange runs fn over [0, n) by recursive binary splitting down to
// the given grain, spawning the halves so idle workers steal the large
// top-of-deque subranges first. fn receives the worker plus the half-open
// subrange. grain < 1 defaults to 1.
func (p *Pool) ParallelRange(n, grain int, fn func(w *Worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p.Run(func(w *Worker) {
		var g Group
		var split func(w *Worker, lo, hi int)
		split = func(w *Worker, lo, hi int) {
			for hi-lo > grain {
				mid := lo + (hi-lo)/2
				rlo, rhi := mid, hi // capture by value: hi mutates below
				//lint:ignore hotalloc the spawn closure IS the task; grain bounds live tasks to O(n/grain)
				w.Spawn(&g, func(inner *Worker) { split(inner, rlo, rhi) })
				hi = mid
			}
			fn(w, lo, hi)
		}
		split(w, 0, n)
		w.Wait(&g)
	})
}

// StaticRange runs fn over [0, n) split into one contiguous chunk per
// worker with no stealing — the static-chunking ablation contrasted with
// work stealing in the benchmarks.
func (p *Pool) StaticRange(n int, fn func(w *Worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p.Run(func(w *Worker) {
		var g Group
		nw := len(p.workers)
		for i := 0; i < nw; i++ {
			lo := i * n / nw
			hi := (i + 1) * n / nw
			if lo == hi {
				continue
			}
			//lint:ignore hotalloc the spawn closure IS the task; one per worker per call
			w.Spawn(&g, func(inner *Worker) { fn(inner, lo, hi) })
		}
		w.Wait(&g)
	})
}
